(* The Domain-parallel trial engine: schedule-independence of Pool.map,
   seed-stream compatibility with the legacy soak derivation, merge
   algebra, and protocol exactness across the adversarial shape
   catalogue. *)

open Intersect

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Pool ------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  List.iter
    (fun (domains, trials) ->
      let f i = (i * 7919) lxor (i lsl 3) in
      let sequential = Array.init trials f in
      let parallel = Engine.Pool.map ~domains ~trials f in
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d trials=%d" domains trials)
        sequential parallel)
    [ (1, 100); (2, 100); (4, 100); (3, 101); (4, 3); (8, 1); (2, 0) ];
  (* A seeded bucket k=64 trial grid, one shared protocol value: every
     trial's bits, rounds and output are the same at 1, 2 and 4 domains. *)
  let universe = 1 lsl 20 and k = 64 and trials = 24 in
  let protocol = Bucket_protocol.protocol ~k () in
  let stream = Engine.Seed_stream.create ~base:2014 ~label:"test/engine/bucket" in
  let trial i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let pair =
      Workload.Setgen.pair_with_overlap (Prng.Rng.with_label rng "pair") ~universe ~size_s:k
        ~size_t:k ~overlap:(k / 2)
    in
    let o =
      protocol.Protocol.run (Prng.Rng.with_label rng "protocol") ~universe pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    (o.Protocol.cost.Commsim.Cost.total_bits, o.Protocol.cost.Commsim.Cost.rounds, o.Protocol.alice)
  in
  let sequential = Array.init trials trial in
  List.iter
    (fun domains ->
      Alcotest.(check (array (triple int int (array int))))
        (Printf.sprintf "bucket k=64 grid, domains=%d" domains)
        sequential
        (Engine.Pool.map ~domains ~trials trial))
    [ 1; 2; 4 ]

let test_pool_propagates_exceptions () =
  List.iter
    (fun domains ->
      let f i = if i = 33 then failwith "boom" else i in
      Alcotest.check_raises
        (Printf.sprintf "domains=%d" domains)
        (Failure "boom")
        (fun () -> ignore (Engine.Pool.map ~domains ~trials:50 f)))
    [ 1; 4 ]

let test_pool_rejects_bad_args () =
  Alcotest.check_raises "domains=0" (Invalid_argument "Engine.Pool.map: domains < 1") (fun () ->
      ignore (Engine.Pool.map ~domains:0 ~trials:1 Fun.id));
  Alcotest.check_raises "trials<0" (Invalid_argument "Engine.Pool.map: trials < 0") (fun () ->
      ignore (Engine.Pool.map ~domains:1 ~trials:(-1) Fun.id))

(* Pool.fold with an exact-arithmetic accumulator must agree with the
   sequential fold at every domain count — chunk geometry varies with
   the worker count, so this exercises the merge-associativity contract
   the mega-sweep rides on. *)
let test_pool_fold_matches_sequential () =
  let step (sum, mx) i =
    let v = (i * 7919) lxor (i lsl 3) in
    (sum + v, max mx v)
  in
  List.iter
    (fun (domains, trials) ->
      let expected = ref (0, min_int) in
      for i = 0 to trials - 1 do
        expected := step !expected i
      done;
      let folded =
        Engine.Pool.fold ~domains ~trials
          ~init:(fun () -> (0, min_int))
          ~step
          ~merge:(fun (s1, m1) (s2, m2) -> (s1 + s2, max m1 m2))
          ()
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "domains=%d trials=%d" domains trials)
        !expected folded)
    [ (1, 100); (2, 100); (4, 100); (3, 101); (4, 3); (8, 1); (2, 0) ]

(* Sketch accumulators merge bucket-pointwise, so a fold that observes
   into per-chunk sketches must export byte-identical JSON at every
   domain count — the exact shape of the sweep's bits accumulator. *)
let test_pool_fold_sketch_deterministic () =
  let folded domains =
    Engine.Pool.fold ~domains ~trials:500
      ~init:(fun () -> Obsv.Sketch.create ())
      ~step:(fun sk i ->
        Obsv.Sketch.observe sk ((i * 37) land 1023);
        sk)
      ~merge:(fun a b ->
        Obsv.Sketch.merge_into ~into:a b;
        a)
      ()
  in
  let json d = Stats.Json.to_string (Obsv.Sketch.to_json (folded d)) in
  let reference = json 1 in
  List.iter
    (fun d -> Alcotest.(check string) (Printf.sprintf "domains=%d" d) reference (json d))
    [ 2; 3; 4 ]

let test_pool_fold_propagates_exceptions () =
  Alcotest.check_raises "fold raises" (Failure "boom") (fun () ->
      ignore
        (Engine.Pool.fold ~domains:4 ~trials:50
           ~init:(fun () -> 0)
           ~step:(fun acc i -> if i = 33 then failwith "boom" else acc + i)
           ~merge:( + ) ()))

(* --- Instance cache --------------------------------------------------- *)

let test_instance_cache_memoizes () =
  let cache = Engine.Instance_cache.create () in
  let builds = ref 0 in
  let build () =
    incr builds;
    !builds * 100
  in
  check "first build" 100 (Engine.Instance_cache.find cache ~key:"bucket/k64" build);
  check "memoized" 100 (Engine.Instance_cache.find cache ~key:"bucket/k64" build);
  check "distinct key" 200 (Engine.Instance_cache.find cache ~key:"bucket/k128" build);
  check "builder called per key" 2 !builds

(* Each domain builds its own instance: a pure builder therefore yields
   identical trial results at any domain count, while the cache never
   shares a value across domains. *)
let test_instance_cache_per_domain () =
  let cache = Engine.Instance_cache.create () in
  let results =
    Engine.Pool.map ~domains:3 ~trials:12 (fun i ->
        i + Engine.Instance_cache.find cache ~key:"v" (fun () -> 1000))
  in
  Alcotest.(check (array int)) "pure builder, any domain" (Array.init 12 (fun i -> i + 1000)) results

(* --- Seed streams ---------------------------------------------------- *)

(* The engine derivation must match the historical soak seeding exactly:
   byte-identical soak reports depend on it. *)
let test_seed_stream_matches_legacy () =
  let stream = Engine.Seed_stream.create ~base:2014 ~label:"soak/tree/clean" in
  for i = 1 to 40 do
    let engine = Engine.Seed_stream.trial_rng stream i in
    let legacy =
      Prng.Rng.with_label (Prng.Rng.of_int 2014) (Printf.sprintf "soak/tree/clean/trial%d" i)
    in
    Alcotest.(check int64)
      (Printf.sprintf "trial %d" i)
      (Prng.Rng.For_testing.int64 legacy) (Prng.Rng.For_testing.int64 engine)
  done

let test_seed_stream_trials_independent () =
  let stream = Engine.Seed_stream.create ~base:7 ~label:"x" in
  let a = Prng.Rng.For_testing.int64 (Engine.Seed_stream.trial_rng stream 1) in
  let b = Prng.Rng.For_testing.int64 (Engine.Seed_stream.trial_rng stream 2) in
  check_bool "distinct streams" true (a <> b)

(* The allocation-free fragment derivation must agree with the
   historical sprintf formulation on every label shape the harnesses
   use — slash-separated cell coordinates with embedded decimal
   indices exercise Label.add_int's digit emission directly. *)
let test_seed_stream_matches_legacy_label_shapes () =
  List.iter
    (fun (base, label) ->
      let stream = Engine.Seed_stream.create ~base ~label in
      List.iter
        (fun i ->
          let engine = Engine.Seed_stream.trial_rng stream i in
          let legacy =
            Prng.Rng.with_label (Prng.Rng.of_int base) (Printf.sprintf "%s/trial%d" label i)
          in
          Alcotest.(check int64)
            (Printf.sprintf "%s trial %d" label i)
            (Prng.Rng.For_testing.int64 legacy) (Prng.Rng.For_testing.int64 engine))
        [ 1; 2; 9; 10; 11; 99; 100; 101; 12345; 1000000 ])
    [
      (2014, "conform/bucket/k256");
      (2014, "sweep/tree-r2/k64");
      (2014, "sweep/trivial/k24/flip-1e-3");
      (0, "");
      (42, "a");
      (7, "bench/scaling/alloc");
    ]

(* 10^5 (label, trial-index) derivations, no collisions: the FNV-1a /
   SplitMix64 pipeline must behave like a random function over the
   coordinates the sweep actually uses (distinct labels x 10^4 trial
   indices).  Collisions would silently correlate cells. *)
let test_seed_stream_no_collisions_100k () =
  let labels =
    [|
      "sweep/eq/k16"; "sweep/eq/k64"; "sweep/bucket/k16"; "sweep/bucket/k256";
      "sweep/tree-r2/k64"; "sweep/one-round/k256"; "sweep/trivial/k24/flip-1e-3";
      "sweep/bucket/k24/drop-2e-2"; "conform/eq/k16"; "soak/tree/clean";
    |]
  in
  let per_label = 10_000 in
  let seen = Hashtbl.create (2 * Array.length labels * per_label) in
  Array.iter
    (fun label ->
      let stream = Engine.Seed_stream.create ~base:2014 ~label in
      for i = 1 to per_label do
        let draw = Prng.Rng.For_testing.int64 (Engine.Seed_stream.trial_rng stream i) in
        (match Hashtbl.find_opt seen draw with
        | Some (l, j) ->
            Alcotest.failf "collision: %s/trial%d = %s/trial%d (draw %Ld)" label i l j draw
        | None -> ());
        Hashtbl.replace seen draw (label, i)
      done)
    labels;
  check "derivations" (Array.length labels * per_label) (Hashtbl.length seen)

(* Derivation happens inside worker domains in production; the rng a
   trial receives must not depend on which domain derived it. *)
let test_seed_stream_stable_across_domains () =
  let stream = Engine.Seed_stream.create ~base:2014 ~label:"sweep/bucket/k64" in
  let draws domains =
    Engine.Pool.map ~domains ~trials:200 (fun i ->
        Prng.Rng.For_testing.int64 (Engine.Seed_stream.trial_rng stream (i + 1)))
  in
  let reference = draws 1 in
  List.iter
    (fun d ->
      Alcotest.(check (array int64)) (Printf.sprintf "domains=%d" d) reference (draws d))
    [ 2; 4 ]

(* --- Merge algebra --------------------------------------------------- *)

let cost_of ~bits ~rounds =
  let c = Commsim.Cost.zero ~players:2 in
  { c with Commsim.Cost.total_bits = bits; messages = 1; rounds }

let test_merge_costs_associative_commutative () =
  let a = cost_of ~bits:3 ~rounds:1
  and b = cost_of ~bits:5 ~rounds:2
  and c = cost_of ~bits:7 ~rounds:4 in
  let total l = (Engine.Merge.costs ~players:2 l).Commsim.Cost.total_bits in
  check "assoc/comm bits" (total [ a; b; c ]) (total [ c; a; b ]);
  check "sum" 15 (total [ a; b; c ])

let test_merge_metrics () =
  let mk counter gauge =
    let r = Obsv.Metrics.create () in
    Obsv.Metrics.with_registry r (fun () ->
        Obsv.Metrics.incr ~by:counter "trials";
        Obsv.Metrics.set_gauge "depth" gauge;
        Obsv.Metrics.observe "payload" counter);
    r
  in
  let r1 = mk 3 10 and r2 = mk 4 2 in
  let merged = Engine.Merge.metrics [ r1; r2 ] in
  let merged' = Engine.Merge.metrics [ r2; r1 ] in
  Alcotest.(check string)
    "commutative"
    (Stats.Json.to_string (Obsv.Metrics.to_json merged))
    (Stats.Json.to_string (Obsv.Metrics.to_json merged'));
  check "counters add" 7 (Obsv.Metrics.counter_value merged "trials");
  Alcotest.(check (option int)) "gauges max" (Some 10) (Obsv.Metrics.gauge_value merged "depth");
  match Obsv.Metrics.sketch_of merged "payload" with
  | None -> Alcotest.fail "sketch missing"
  | Some s ->
      check "sketch count" 2 (Obsv.Sketch.count s);
      check "sketch sum" 7 (Obsv.Sketch.sum s)

(* --- Adversarial shapes ---------------------------------------------- *)

let shape_protocols k =
  [
    ("trivial", Trivial.protocol);
    ("basic", Basic_intersection.protocol ~failure:0.001);
    ("one-round", One_round_hash.protocol ~confidence:6 ());
    ("bucket", Bucket_protocol.protocol ~k ());
    ("tree r=2", Tree_protocol.protocol ~r:2 ~k ());
    ("tree log*", Tree_protocol.protocol_log_star ~k ());
  ]

let test_shapes_well_formed () =
  let shapes = Workload.Setgen.For_testing.adversarial (Prng.Rng.of_int 11) ~k:16 in
  check "count" 9 (List.length shapes);
  List.iter
    (fun { Workload.Setgen.shape; universe; pair } ->
      check_bool (shape ^ " s sorted") true (Iset.is_valid pair.Workload.Setgen.s);
      check_bool (shape ^ " t sorted") true (Iset.is_valid pair.Workload.Setgen.t);
      Array.iter
        (fun x -> check_bool (shape ^ " s in universe") true (0 <= x && x < universe))
        pair.Workload.Setgen.s;
      Array.iter
        (fun x -> check_bool (shape ^ " t in universe") true (0 <= x && x < universe))
        pair.Workload.Setgen.t)
    shapes;
  let find name = List.find (fun s -> s.Workload.Setgen.shape = name) shapes in
  let inter name =
    let s = find name in
    Array.length
      (Workload.Setgen.intersect s.Workload.Setgen.pair.Workload.Setgen.s
         s.Workload.Setgen.pair.Workload.Setgen.t)
  in
  check "empty-both" 0 (inter "empty-both");
  check "identical" 16 (inter "identical");
  check "nested" 8 (inter "nested");
  check "singleton-equal" 1 (inter "singleton-equal");
  check "singleton-disjoint" 0 (inter "singleton-disjoint");
  check "disjoint" 0 (inter "disjoint");
  check "dense-universe" 8 (inter "dense-universe")

(* Every protocol must output exactly S ∩ T on every catalogue shape.
   The seed is pinned: randomized protocols are deterministic given it,
   so this asserts a reproducible fact, not a probabilistic hope — and
   the shapes (empty sets, singletons, k-overlap, dense universes) are
   exactly the corners where indexing bugs hide. *)
let test_protocols_exact_on_shapes () =
  List.iter
    (fun k ->
      let shapes = Workload.Setgen.For_testing.adversarial (Prng.Rng.of_int 4242) ~k in
      List.iter
        (fun { Workload.Setgen.shape; universe; pair } ->
          List.iter
            (fun (name, protocol) ->
              let outcome =
                protocol.Protocol.run
                  (Prng.Rng.with_label (Prng.Rng.of_int 2014) (shape ^ "/" ^ name))
                  ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
              in
              check_bool
                (Printf.sprintf "k=%d %s %s exact" k shape name)
                true
                (Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t))
            (shape_protocols k))
        shapes)
    [ 4; 16; 64 ]

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "matches sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "propagates exceptions" `Quick test_pool_propagates_exceptions;
          Alcotest.test_case "rejects bad args" `Quick test_pool_rejects_bad_args;
          Alcotest.test_case "fold matches sequential" `Quick test_pool_fold_matches_sequential;
          Alcotest.test_case "fold sketch deterministic" `Quick test_pool_fold_sketch_deterministic;
          Alcotest.test_case "fold propagates exceptions" `Quick test_pool_fold_propagates_exceptions;
        ] );
      ( "instance-cache",
        [
          Alcotest.test_case "memoizes per key" `Quick test_instance_cache_memoizes;
          Alcotest.test_case "per-domain, pure builders" `Quick test_instance_cache_per_domain;
        ] );
      ( "seed-stream",
        [
          Alcotest.test_case "matches legacy soak" `Quick test_seed_stream_matches_legacy;
          Alcotest.test_case "trials independent" `Quick test_seed_stream_trials_independent;
          Alcotest.test_case "matches legacy label shapes" `Quick
            test_seed_stream_matches_legacy_label_shapes;
          Alcotest.test_case "no collisions across 10^5" `Quick test_seed_stream_no_collisions_100k;
          Alcotest.test_case "stable across domains" `Quick test_seed_stream_stable_across_domains;
        ] );
      ( "merge",
        [
          Alcotest.test_case "costs" `Quick test_merge_costs_associative_commutative;
          Alcotest.test_case "metrics" `Quick test_merge_metrics;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "well-formed" `Quick test_shapes_well_formed;
          Alcotest.test_case "protocols exact" `Quick test_protocols_exact_on_shapes;
        ] );
    ]
