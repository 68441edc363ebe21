(* Engine scaling and the allocation gate.

   [run] writes BENCH_engine_scaling.json: the same seeded bucket-protocol
   trial grid at 1, 2 and 4 worker domains — trials/sec, speedup over the
   single-domain run and the major collections observed during the timed
   grid, plus allocated bytes/trial at one domain only (Gc.allocated_bytes
   counts the calling domain, so above one domain it misses the workers).
   Asserts along the way that the merged results are identical at every
   domain count — the engine's determinism contract, measured rather
   than assumed.  The throughput columns are marked unverified: they come
   from an uncalibrated clock on a shared host, and calibrated timing is
   perf/'s.

   [alloc_gate] probes four cases — bucket k = 1024, tree-log-star
   k = 4096, one guarded bucket attempt at k = 256 over a noisy link, and
   a one-round k = 64 plus a tree-r2 k = 16 Conform trial — and exits
   non-zero if any case's bytes/trial exceeds its gate baseline by more
   than 2%.

   The JSON records [cores] (Domain.recommended_domain_count) because
   speedup is bounded by the cores actually available: on a single-core
   host every domain count measures the same sequential throughput plus
   scheduling overhead. *)

open Intersect

let seed = 2014
let k = 64
let universe_bits = 20
let trials = 600

let trial_of ~protocol ~stream ~universe ~k i =
  let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
  let pair =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "pair")
      ~universe ~size_s:k ~size_t:k ~overlap:(k / 2)
  in
  let outcome =
    protocol.Protocol.run
      (Prng.Rng.with_label rng "protocol")
      ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
  in
  (outcome.Protocol.cost.Commsim.Cost.total_bits, Iset.cardinal outcome.Protocol.alice)

let trial_grid ~domains =
  let universe = 1 lsl universe_bits in
  let protocol = Bucket_protocol.protocol ~k () in
  let stream = Engine.Seed_stream.create ~base:seed ~label:"bench/scaling" in
  Engine.Pool.map ~domains ~trials (fun i -> trial_of ~protocol ~stream ~universe ~k i)

type case_measure = {
  results : (int * int) array;
  rate : float;
  bytes_per_trial : float;  (* calling domain's share only, so reported at one domain *)
  majors : int;
}

let time_grid ~domains =
  ignore (trial_grid ~domains) (* warm-up *);
  let results, w = Obsv.Window.measure (fun () -> trial_grid ~domains) in
  {
    results;
    rate = float_of_int trials /. (float_of_int w.ns *. 1e-9);
    bytes_per_trial = float_of_int w.alloc_bytes /. float_of_int trials;
    majors = w.major_collections;
  }

(* ---------- allocations-per-trial probes ---------- *)

(* Bytes/trial of the full bucket trial at the PR-5 seed commit, measured
   with this probe (20 trials, warm pools) before the allocation-lean
   rewrite landed; [reduction] reports how far below it the build sits. *)
let alloc_seed_baseline_bytes = 9_181_129.0

(* The probes are deterministic, so the tier1 alloc gate allows only the
   2% that BENCHMARK.json's alloc_bytes_per_op bound allows over each
   case's baseline. *)
let alloc_gate_tolerance = 0.02

let alloc_trials = 20

type alloc_case = {
  name : string;
  label : string;  (* seed-stream label of the probe's trials *)
  k : int;
  trial : unit -> Engine.Seed_stream.t -> int -> unit;
      (* built once per probe; the result runs trial [i] of the stream *)
  baseline : float;
}

let protocol_trial ~k protocol () =
  let protocol = protocol () and universe = 1 lsl universe_bits in
  fun stream i -> ignore (Sys.opaque_identity (trial_of ~protocol ~stream ~universe ~k i))

(* Bytes per trial: bucket k=1024, tree-log-star k=4096, one guarded bucket k=256 attempt. *)
let bucket_case =
  {
    name = "bucket";
    label = "bench/scaling/alloc";
    k = 1024;
    trial = protocol_trial ~k:1024 (fun () -> Bucket_protocol.protocol ~k:1024 ());
    baseline = 143_302.0;
  }

let tree_case =
  {
    name = "tree-log-star";
    label = "bench/scaling/alloc/tree";
    k = 4096;
    trial = protocol_trial ~k:4096 (fun () -> Tree_protocol.protocol_log_star ~k:4096 ());
    baseline = 438_664.0;
  }

let guarded_attempt_trial () =
  let k = 256 and universe = 1 lsl 16 in
  let base = Resilient.bucket_base ~k () in
  let link = { Commsim.Faults.clean_link with flip = 1e-5; trunc = 1e-2 } in
  fun stream i ->
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let pair =
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.with_label rng "pair")
        ~universe ~size_s:k ~size_t:k ~overlap:(k / 2)
    in
    let seed = Prng.Rng.bits (Prng.Rng.with_label rng "faults") ~width:30 in
    let plan = Commsim.Faults.uniform ~seed link in
    ignore
      (Sys.opaque_identity
         (Resilient.attempt_once base ~plan ~check_bits:k ~attempt:1
            (Prng.Rng.with_label rng "attempt")
            ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t))

let guarded_case =
  {
    name = "guarded-attempt";
    label = "bench/scaling/alloc/guarded";
    k = 256;
    trial = guarded_attempt_trial;
    baseline = 56_622.0;
  }

(* Bytes per trial of the small-k path Conform and the sweep run: one-round k=64 + tree-r2 k=16. *)
let conform_smallk_trial () =
  let cache = Engine.Instance_cache.create () and universe = 1 lsl universe_bits in
  let one_round = Workload.Conform.entry_of_name "one-round"
  and tree_r2 = Workload.Conform.entry_of_name "tree-r2" in
  fun stream i ->
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    ignore
      (Sys.opaque_identity
         (one_round.Workload.Conform.trial ~cache (Prng.Rng.with_label rng "one-round") ~universe
            ~k:64));
    ignore
      (Sys.opaque_identity
         (tree_r2.Workload.Conform.trial ~cache (Prng.Rng.with_label rng "tree-r2") ~universe ~k:16))

let conform_smallk_case =
  {
    name = "conform-smallk";
    label = "bench/scaling/alloc/conform-smallk";
    k = 64;
    trial = conform_smallk_trial;
    baseline = 21_818.0;
  }

let alloc_cases = [ bucket_case; tree_case; guarded_case; conform_smallk_case ]

let alloc_probe case =
  let stream = Engine.Seed_stream.create ~base:seed ~label:case.label in
  let run_trial = case.trial () stream in
  (* Warm-up: codec caches and bitio arenas populate on first use. *)
  for i = 0 to 2 do
    run_trial i
  done;
  let (), w =
    Obsv.Window.measure (fun () ->
        for i = 0 to alloc_trials - 1 do
          run_trial i
        done)
  in
  float_of_int w.alloc_bytes /. float_of_int alloc_trials

(* Tier1's allocation-regression gate: fail any build whose bucket
   k=1024 trial, tree-log-star k=4096 trial, guarded bucket k=256
   attempt or small-k Conform pair of trials allocates more than its
   case's baseline plus the tolerance. *)
let alloc_gate () =
  let within case =
    let bytes = alloc_probe case in
    let limit = case.baseline *. (1.0 +. alloc_gate_tolerance) in
    Printf.printf "alloc gate: %s k=%d  %.0f bytes/trial (gate %.0f = %.0f + %.0f%%)\n" case.name
      case.k bytes limit case.baseline (100.0 *. alloc_gate_tolerance);
    if bytes > limit then
      Printf.eprintf "alloc gate: REGRESSION — %s %.0f bytes/trial exceeds the gate %.0f\n"
        case.name bytes limit;
    (bytes, bytes <= limit)
  in
  let results = List.map (fun case -> (case, within case)) alloc_cases in
  let bucket, _ = List.assq bucket_case results in
  Printf.printf "alloc gate: bucket seed baseline %.0f, %.2fx reduction\n" alloc_seed_baseline_bytes
    (alloc_seed_baseline_bytes /. bucket);
  if List.for_all (fun (_, (_, ok)) -> ok) results then 0 else 1

let run ?(out = "BENCH_engine_scaling.json") () =
  let cores = Domain.recommended_domain_count () in
  let counts = [ 1; 2; 4 ] in
  let measured = List.map (fun d -> (d, time_grid ~domains:d)) counts in
  let baseline = match measured with (_, m) :: _ -> m | [] -> assert false in
  List.iter
    (fun (d, m) ->
      if m.results <> baseline.results then
        failwith (Printf.sprintf "engine scaling: results differ at %d domains" d))
    measured;
  let table =
    Stats.Table.create ~title:"Engine scaling (bucket, k=64, 600 trials; throughput unverified)"
      ~columns:[ "domains"; "trials/sec"; "speedup"; "bytes/trial"; "majors" ]
  in
  List.iter
    (fun (d, m) ->
      Stats.Table.add_row table
        [
          string_of_int d;
          Printf.sprintf "%.0f" m.rate;
          Printf.sprintf "%.2fx" (m.rate /. baseline.rate);
          (if d = 1 then Printf.sprintf "%.0f" m.bytes_per_trial else "-");
          string_of_int m.majors;
        ])
    measured;
  Stats.Table.print table;
  Printf.printf "cores available: %d; merged results identical at every domain count\n" cores;
  let json =
    Stats.Json.Obj
      [
        ("bench", Stats.Json.Str "engine_scaling");
        ("protocol", Stats.Json.Str "bucket");
        ("seed", Stats.Json.Int seed);
        ("k", Stats.Json.Int k);
        ("universe_bits", Stats.Json.Int universe_bits);
        ("trials", Stats.Json.Int trials);
        ("cores", Stats.Json.Int cores);
        ("deterministic_across_domains", Stats.Json.Bool true);
        ("throughput", Stats.Json.Str "unverified");
        ( "cases",
          Stats.Json.List
            (List.map
               (fun (d, m) ->
                 let bytes =
                   if d = 1 then [ ("bytes_per_trial", Stats.Json.Float m.bytes_per_trial) ] else []
                 in
                 Stats.Json.Obj
                   ([
                      ("domains", Stats.Json.Int d);
                      ("trials_per_sec", Stats.Json.Float m.rate);
                      ("speedup", Stats.Json.Float (m.rate /. baseline.rate));
                    ]
                   @ bytes
                   @ [ ("major_collections", Stats.Json.Int m.majors) ]))
               measured) );
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Stats.Json.to_string_pretty json);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n" out
