(* Probe fidelity: an op run through the layer probes must be the same
   execution as the plain call, or the layer numbers describe a different
   program.  Plus the order statistics and verdicts --compare relies on. *)

open Perfbench

let same_through_probe (w : Workloads.t) ops () =
  match w.setup ~seed:2014 with
  | Workloads.Instance o ->
      let probe = Probe.create ~slots:w.slots in
      List.iter
        (fun i ->
          if o.run i <> o.probe probe i then
            Alcotest.failf "%s op %d: probed result differs" w.name i)
        ops;
      Alcotest.(check int) "no negative switch residual" 0 probe.negative_switch

(* The probe wraps run_party; the plain op is Protocol.t.run: compare the
   two on Cost.t and both outputs explicitly. *)
let bucket_cost_and_outputs () =
  let k = 1024 and universe = 1 lsl 20 in
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 2014) ~universe ~size_s:k ~size_t:k
      ~overlap:(k / 2)
  in
  let rng = Prng.Rng.of_int 7 in
  let plain = (Intersect.Bucket_protocol.protocol ~k ()).run rng ~universe pair.s pair.t in
  let probe = Probe.create ~slots:0 in
  let party role mine chan = Intersect.Bucket_protocol.run_party role rng ~universe ~k chan mine in
  let (alice, bob), cost =
    Probe.two_party probe ~alice:(party `Alice pair.s) ~bob:(party `Bob pair.t)
  in
  Alcotest.(check bool) "Cost.t" true (cost = plain.cost);
  Alcotest.(check bool) "alice" true (Iset.equal alice plain.alice);
  Alcotest.(check bool) "bob" true (Iset.equal bob plain.bob);
  Alcotest.(check int) "messages seen by the wrapper" plain.cost.messages (Probe.messages probe)

(* Python: statistics.quantiles(range(1, 11), n=4), of [1, 2], and with
   n=10 and n=2 (the median) of range(1, 11). *)
let quantiles () =
  let q = Alcotest.(array (float 1e-12)) in
  let one_to_ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check q "quartiles of 1..10" [| 2.75; 5.5; 8.25 |] (Timing.quantiles ~n:4 one_to_ten);
  Alcotest.check q "quartiles of two values" [| 0.75; 1.5; 2.25 |]
    (Timing.quantiles ~n:4 [| 2.0; 1.0 |]);
  Alcotest.check q "ninth decile of 1..10" [| 9.9 |]
    [| (Timing.quantiles ~n:10 one_to_ten).(8) |];
  Alcotest.(check (float 1e-12)) "median of 1..10" 5.5 (Timing.median one_to_ten);
  Alcotest.(check (float 1e-12)) "median of 3 values" 2.0 (Timing.median [| 3.0; 1.0; 2.0 |])

let verdicts () =
  let runs base = Array.init 10 (fun i -> base *. (1.0 +. (0.001 *. float_of_int i))) in
  let noisy = Array.init 10 (fun i -> 60.0 +. (10.0 *. float_of_int i)) in
  let judge a b = Compare.verdict_name (Compare.judge ~lower_is_better:true ~bound:0.1 a b) in
  Alcotest.(check string) "same" "within" (judge (runs 100.0) (runs 101.0));
  Alcotest.(check string) "slower" "regressed" (judge (runs 100.0) (runs 120.0));
  Alcotest.(check string) "noisy" "unresolved" (judge (runs 100.0) noisy);
  Alcotest.(check string) "one run" "unresolved" (judge [| 100.0 |] [| 130.0 |])

let () =
  let fidelity name w ops = Alcotest.test_case name `Quick (same_through_probe w ops) in
  Alcotest.run "perf"
    [
      ( "probe-fidelity",
        [
          Alcotest.test_case "bucket cost and outputs" `Quick bucket_cost_and_outputs;
          fidelity "bucket-k1024 ops" Workloads.bucket_k1024 [ 0; 1; 65 ];
          fidelity "tree-k4096 op" Workloads.tree_k4096 [ 0 ];
          fidelity "sweep-smallk ops" Workloads.sweep_smallk (List.init 16 Fun.id);
          fidelity "session-noisy steps = Machine.run" Workloads.session_noisy
            (List.init 12 Fun.id);
        ] );
      ( "compare",
        [
          Alcotest.test_case "quantiles" `Quick quantiles;
          Alcotest.test_case "verdicts" `Quick verdicts;
        ] );
    ]
