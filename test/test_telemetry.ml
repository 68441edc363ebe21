(* Fleet telemetry: the quantile sketch's bucket scheme and merge laws
   (byte-identical JSON under any merge grouping — the property the
   Engine.Merge reduction tree relies on), the flight recorder's ring
   bound and disabled fast path, snapshot rate arithmetic, SLO
   evaluation, and the end-to-end guarantee that a chaos campaign's
   telemetry stream is byte-identical across domain counts. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A tiny deterministic value source (no ambient randomness in tests —
   lint R1 holds here too). *)
let lcg_values ~seed ~n ~bound =
  let x = ref seed in
  List.init n (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      !x mod bound)

let sketch_of_values values =
  let s = Obsv.Sketch.create () in
  List.iter (Obsv.Sketch.observe s) values;
  s

let sketch_json s = Stats.Json.to_string (Obsv.Sketch.to_json s)

(* --- sketch: bucket scheme -------------------------------------------- *)

let test_sketch_unit_buckets () =
  for v = 0 to 15 do
    check "unit bucket" v (Obsv.Sketch.bucket_of v);
    check "unit upper" v (Obsv.Sketch.bucket_upper v)
  done

let test_sketch_bucket_monotone () =
  (* bucket_of is monotone and bucket_upper inverts it on a spread of
     values across several octaves. *)
  let values = [ 16; 17; 31; 32; 100; 1000; 4096; 65535; 1_000_000; max_int / 2 ] in
  List.iter
    (fun v ->
      let b = Obsv.Sketch.bucket_of v in
      check_bool "index in range" true (b >= 0 && b < Obsv.Sketch.bucket_count);
      check_bool "upper bounds the value" true (Obsv.Sketch.bucket_upper b >= v);
      check "upper maps to its own bucket" b (Obsv.Sketch.bucket_of (Obsv.Sketch.bucket_upper b)))
    values;
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        check_bool "monotone" true (Obsv.Sketch.bucket_of a <= Obsv.Sketch.bucket_of b);
        pairs rest
    | _ -> ()
  in
  pairs values

let test_sketch_relative_error () =
  (* The log-linear scheme bounds any reported quantile's overshoot by
     one sub-bucket: upper/v <= 1 + 1/16 for v >= 16. *)
  List.iter
    (fun v ->
      let upper = Obsv.Sketch.bucket_upper (Obsv.Sketch.bucket_of v) in
      check_bool "within 1/16 relative error" true (upper - v <= v / 16))
    [ 16; 100; 1000; 12345; 1_000_000 ]

let test_sketch_known_quantiles () =
  let s = sketch_of_values (List.init 100 (fun i -> i + 1)) in
  check "count" 100 (Obsv.Sketch.count s);
  check "sum" 5050 (Obsv.Sketch.sum s);
  Alcotest.(check (option int)) "min" (Some 1) (Obsv.Sketch.min_value s);
  Alcotest.(check (option int)) "max" (Some 100) (Obsv.Sketch.max_value s);
  let p50 = Obsv.Sketch.p50 s in
  check_bool "p50 in [50, 53]" true (p50 >= 50 && p50 <= 53);
  check "p999 clamps to the observed max" 100 (Obsv.Sketch.p999 s);
  check "empty sketch quantile" 0 (Obsv.Sketch.p99 (Obsv.Sketch.create ()))

(* --- sketch: merge laws ----------------------------------------------- *)

let test_sketch_merge_commutes () =
  let a () = sketch_of_values (lcg_values ~seed:7 ~n:500 ~bound:100_000) in
  let b () = sketch_of_values (lcg_values ~seed:11 ~n:300 ~bound:1_000_000) in
  let ab = a () in
  Obsv.Sketch.merge_into ~into:ab (b ());
  let ba = b () in
  Obsv.Sketch.merge_into ~into:ba (a ());
  check_str "A+B = B+A, byte for byte" (sketch_json ab) (sketch_json ba)

let test_sketch_merge_grouping_free () =
  (* Any split of the population, merged in any grouping, must export the
     same JSON as observing everything in one sketch — the domain-count
     independence the engine's merge tree needs. *)
  let all = lcg_values ~seed:42 ~n:900 ~bound:250_000 in
  let bulk = sketch_json (sketch_of_values all) in
  let chunk i = List.filteri (fun j _ -> j mod 3 = i) all in
  let s0 = sketch_of_values (chunk 0) in
  let s1 = sketch_of_values (chunk 1) in
  let s2 = sketch_of_values (chunk 2) in
  (* (s0 + s1) + s2 *)
  let left = sketch_of_values (chunk 0) in
  Obsv.Sketch.merge_into ~into:left s1;
  Obsv.Sketch.merge_into ~into:left s2;
  (* s0 + (s1 + s2) *)
  let right = sketch_of_values (chunk 1) in
  Obsv.Sketch.merge_into ~into:right s2;
  Obsv.Sketch.merge_into ~into:right s0;
  check_str "left grouping = bulk" bulk (sketch_json left);
  check_str "right grouping = bulk" bulk (sketch_json right)

let test_registry_merges_sketches () =
  let r1 = Obsv.Metrics.create () in
  let r2 = Obsv.Metrics.create () in
  Obsv.Metrics.with_registry r1 (fun () ->
      List.iter (Obsv.Metrics.observe "fleet/spent_bits") [ 10; 20; 30 ]);
  Obsv.Metrics.with_registry r2 (fun () ->
      List.iter (Obsv.Metrics.observe "fleet/spent_bits") [ 40; 50 ]);
  Obsv.Metrics.merge_into ~into:r1 r2;
  match Obsv.Metrics.sketch_of r1 "fleet/spent_bits" with
  | None -> Alcotest.fail "sketch lost in merge"
  | Some s ->
      check "merged count" 5 (Obsv.Sketch.count s);
      check "merged sum" 150 (Obsv.Sketch.sum s)

(* --- flight recorder --------------------------------------------------- *)

let test_recorder_wraparound () =
  let r = Obsv.Recorder.create ~capacity:8 () in
  Obsv.Recorder.with_recorder r (fun () ->
      for i = 1 to 20 do
        Obsv.Recorder.event ~kind:"tick" (string_of_int i)
      done);
  check "recorded counts every offer" 20 (Obsv.Recorder.recorded r);
  check "retained is the ring bound" 8 (Obsv.Recorder.retained r);
  check "dropped is the difference" 12 (Obsv.Recorder.dropped r);
  check "capacity" 8 (Obsv.Recorder.capacity r);
  let evs = Obsv.Recorder.events r in
  check "window size" 8 (List.length evs);
  check "oldest surviving seq" 12 (List.hd evs).Obsv.Recorder.seq;
  check_str "oldest surviving detail" "13" (List.hd evs).Obsv.Recorder.detail;
  check "newest seq" 19 (List.nth evs 7).Obsv.Recorder.seq

let test_recorder_disabled_is_noop () =
  check_bool "ambient default is disabled" false (Obsv.Recorder.active ());
  (* Writes outside any with_recorder scope vanish... *)
  Obsv.Recorder.event ~kind:"lost" "nobody listening";
  check "disabled retains nothing" 0 (Obsv.Recorder.retained Obsv.Recorder.disabled);
  check "disabled records nothing" 0 (Obsv.Recorder.recorded Obsv.Recorder.disabled);
  (* ... and the guarded-write pattern costs no allocation when off. *)
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Obsv.Recorder.active () then Obsv.Recorder.event ~kind:"hot" "never formatted"
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool "guarded disabled path allocates nothing" true (allocated < 256.0)

let test_recorder_scoping () =
  let r = Obsv.Recorder.create () in
  Obsv.Recorder.with_recorder r (fun () ->
      check_bool "active inside the scope" true (Obsv.Recorder.active ());
      Obsv.Recorder.event ~attrs:[ ("rung", "base") ] ~kind:"attempt" "attempt 1");
  check_bool "inactive outside again" false (Obsv.Recorder.active ());
  check "the scoped event landed" 1 (Obsv.Recorder.retained r);
  let ev = List.hd (Obsv.Recorder.events r) in
  check_str "kind" "attempt" ev.Obsv.Recorder.kind;
  check_str "attr" "base" (List.assoc "rung" ev.Obsv.Recorder.attrs)

let test_recorder_post_mortem_shape () =
  let r = Obsv.Recorder.create ~capacity:4 () in
  Obsv.Recorder.with_recorder r (fun () ->
      Obsv.Recorder.event ~kind:"failure" "corrupted payload");
  let j = Obsv.Recorder.post_mortem_json ~outcome:"degraded" r in
  let member name = Stats.Json.member name j in
  check_bool "event marker" true (member "event" = Some (Stats.Json.Str "post-mortem"));
  check_bool "outcome carried" true (member "outcome" = Some (Stats.Json.Str "degraded"));
  check_bool "events listed" true
    (match Option.bind (member "events") Stats.Json.to_list_opt with
    | Some [ _ ] -> true
    | _ -> false)

(* --- snapshots and rates ----------------------------------------------- *)

let registry_with setup =
  let r = Obsv.Metrics.create () in
  Obsv.Metrics.with_registry r setup;
  r

let test_snapshot_rates () =
  let prev =
    Obsv.Snapshot.take ~seq:0 ~at:10
      (registry_with (fun () -> Obsv.Metrics.incr ~by:5 "fleet/sessions"))
  in
  let cur =
    Obsv.Snapshot.take ~seq:1 ~at:20
      (registry_with (fun () ->
           Obsv.Metrics.incr ~by:9 "fleet/sessions";
           Obsv.Metrics.incr ~by:3 "fleet/wrong"))
  in
  check "counter accessor" 9 (Obsv.Snapshot.counter cur "fleet/sessions");
  check "absent counter is 0" 0 (Obsv.Snapshot.counter cur "fleet/nope");
  check_str "integer rate arithmetic"
    {|{"event":"rates","seq":1,"at":20,"dt":10,"counters":{"fleet/sessions":{"delta":4,"per_1000":400},"fleet/wrong":{"delta":3,"per_1000":300}}}|}
    (Stats.Json.to_string (Obsv.Snapshot.rates_json ~prev cur))

(* --- health ------------------------------------------------------------ *)

let healthy_registry ?(wrong = 0) () =
  registry_with (fun () ->
      Obsv.Metrics.incr ~by:20 Obsv.Health.k_sessions;
      Obsv.Metrics.incr ~by:19 (Obsv.Health.k_outcome "completed");
      Obsv.Metrics.incr ~by:1 (Obsv.Health.k_outcome "degraded");
      if wrong > 0 then Obsv.Metrics.incr ~by:wrong Obsv.Health.k_wrong;
      List.iter (Obsv.Metrics.observe Obsv.Health.k_spent_bits) [ 100; 200; 300 ];
      Obsv.Metrics.set_gauge Obsv.Health.k_deadline_bits 1000)

let verdict_of (h : Obsv.Health.report) slo =
  match List.find_opt (fun (v : Obsv.Health.verdict) -> v.Obsv.Health.slo = slo) h.Obsv.Health.verdicts with
  | Some v -> v
  | None -> Alcotest.fail ("missing verdict " ^ slo)

let test_health_evaluate () =
  let snap = Obsv.Snapshot.take ~seq:0 ~at:20 (healthy_registry ()) in
  let h = Obsv.Health.evaluate snap in
  check_bool "healthy fleet passes" true h.Obsv.Health.ok;
  check "sessions surface" 20 h.Obsv.Health.sessions;
  let degraded = verdict_of h "degraded-rate" in
  check "degraded measured in per-mille" 50 degraded.Obsv.Health.measured;
  let burn = verdict_of h "p99-budget-burn" in
  (* p99 spend 300 of a 1000-bit deadline = 300 per-mille. *)
  check "burn measured" 300 burn.Obsv.Health.measured

let test_health_wrong_is_fatal () =
  let snap = Obsv.Snapshot.take ~seq:0 ~at:20 (healthy_registry ~wrong:1 ()) in
  let h = Obsv.Health.evaluate snap in
  check_bool "one wrong answer fails the fleet" false h.Obsv.Health.ok;
  let wrong = verdict_of h "wrong-rate-zero" in
  check_bool "the wrong-rate verdict is the red one" false wrong.Obsv.Health.ok;
  check "limit is hard-wired to zero" 0 wrong.Obsv.Health.limit

let test_health_empty_fleet_fails () =
  let snap = Obsv.Snapshot.take ~seq:0 ~at:0 (Obsv.Metrics.create ()) in
  check_bool "empty fleet is not healthy" false (Obsv.Health.evaluate snap).Obsv.Health.ok

(* --- end to end: the stream is domain-count independent ---------------- *)

let tiny_chaos =
  {
    Workload.Chaos.smoke with
    Workload.Chaos.trials = 3;
    protocols = [ "trivial" ];
    campaigns =
      List.filter
        (fun (name, _) -> name = "corruption-storm" || name = "crash-resume")
        Workload.Chaos.campaign_catalogue;
  }

let stream_at domains =
  let sink = Workload.Telemetry.create_sink () in
  ignore (Workload.Chaos.run ~domains ~sink tiny_chaos);
  String.concat "\n" (Workload.Telemetry.jsonl sink)

let test_stream_domain_independent () =
  let d1 = stream_at 1 in
  check_bool "stream is non-trivial" true (String.length d1 > 200);
  check_str "domains 1 = domains 2" d1 (stream_at 2);
  check_str "domains 1 = domains 4" d1 (stream_at 4)

let () =
  Alcotest.run "telemetry"
    [
      ( "sketch buckets",
        [
          Alcotest.test_case "unit buckets exact" `Quick test_sketch_unit_buckets;
          Alcotest.test_case "monotone with inverse" `Quick test_sketch_bucket_monotone;
          Alcotest.test_case "1/16 relative error" `Quick test_sketch_relative_error;
          Alcotest.test_case "known quantiles" `Quick test_sketch_known_quantiles;
        ] );
      ( "sketch merge",
        [
          Alcotest.test_case "commutative" `Quick test_sketch_merge_commutes;
          Alcotest.test_case "grouping-free" `Quick test_sketch_merge_grouping_free;
          Alcotest.test_case "via registry merge" `Quick test_registry_merges_sketches;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick test_recorder_wraparound;
          Alcotest.test_case "disabled fast path" `Quick test_recorder_disabled_is_noop;
          Alcotest.test_case "ambient scoping" `Quick test_recorder_scoping;
          Alcotest.test_case "post-mortem shape" `Quick test_recorder_post_mortem_shape;
        ] );
      ( "snapshots",
        [ Alcotest.test_case "integer rates" `Quick test_snapshot_rates ] );
      ( "health",
        [
          Alcotest.test_case "healthy fleet" `Quick test_health_evaluate;
          Alcotest.test_case "wrong answer is fatal" `Quick test_health_wrong_is_fatal;
          Alcotest.test_case "empty fleet fails" `Quick test_health_empty_fleet_fails;
        ] );
      ( "stream determinism",
        [ Alcotest.test_case "domain-count independent" `Quick test_stream_domain_independent ]
      );
    ]
