(* The theorem-conformance tier as an Alcotest suite: seeded sweeps
   asserting the paper's round budgets and envelopes directly, plus the
   report plumbing (pass flag, JSON shape, unknown-protocol errors). *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run ~protocols ~ks ~trials =
  Workload.Conform.run
    { Workload.Conform.default with protocols; ks; trials; seed = 2014 }

let cell_for report ~protocol ~k =
  List.find
    (fun c -> c.Workload.Campaign.protocol = protocol && c.Workload.Campaign.k = k)
    report.Workload.Conform.cells

let ks = [ 16; 64; 256 ]

(* Lemma 3.3: Basic-Intersection is a 4-round protocol. *)
let test_lemma_3_3_rounds () =
  let report = run ~protocols:[ "basic" ] ~ks ~trials:30 in
  check_bool "pass" true report.Workload.Conform.pass;
  List.iter
    (fun k ->
      let cell = cell_for report ~protocol:"basic" ~k in
      check (Printf.sprintf "k=%d rounds" k) 4 cell.Workload.Campaign.rounds_max;
      Alcotest.(check (option int))
        (Printf.sprintf "k=%d budget" k)
        (Some 4) cell.Workload.Campaign.rounds_limit)
    ks

(* Fact 3.5: randomized equality is one message + one confirmation. *)
let test_fact_3_5_rounds () =
  let report = run ~protocols:[ "eq" ] ~ks ~trials:30 in
  check_bool "pass" true report.Workload.Conform.pass;
  List.iter
    (fun k ->
      let cell = cell_for report ~protocol:"eq" ~k in
      check (Printf.sprintf "k=%d rounds" k) 2 cell.Workload.Campaign.rounds_max)
    ks

(* Theorem 3.1: the bucket protocol stays within c·√k rounds. *)
let test_bucket_rounds_sqrt_k () =
  let report = run ~protocols:[ "bucket" ] ~ks ~trials:30 in
  check_bool "pass" true report.Workload.Conform.pass;
  List.iter
    (fun k ->
      let cell = cell_for report ~protocol:"bucket" ~k in
      let isqrt = int_of_float (ceil (sqrt (float_of_int k))) in
      check_bool
        (Printf.sprintf "k=%d rounds %d <= 20*sqrt(k)" k cell.Workload.Campaign.rounds_max)
        true
        (cell.Workload.Campaign.rounds_max <= 20 * isqrt))
    ks

(* Theorem 3.6: the r-stage tree protocol uses at most 6r rounds. *)
let test_tree_rounds_6r () =
  List.iter
    (fun (name, r) ->
      let report = run ~protocols:[ name ] ~ks ~trials:30 in
      check_bool (name ^ " pass") true report.Workload.Conform.pass;
      List.iter
        (fun k ->
          let cell = cell_for report ~protocol:name ~k in
          check_bool
            (Printf.sprintf "%s k=%d rounds %d <= %d" name k cell.Workload.Campaign.rounds_max
               (6 * r))
            true
            (cell.Workload.Campaign.rounds_max <= 6 * r))
        ks)
    [ ("tree-r2", 2); ("tree-r3", 3) ]

(* The full default matrix passes and is domain-count independent. *)
let test_full_matrix_passes () =
  let config = { Workload.Conform.smoke with trials = 15 } in
  let r1 = Workload.Conform.run ~domains:1 config in
  let r3 = Workload.Conform.run ~domains:3 config in
  check_bool "pass" true r1.Workload.Conform.pass;
  Alcotest.(check string)
    "domain-independent"
    (Stats.Json.to_string (Workload.Conform.to_json r1))
    (Stats.Json.to_string (Workload.Conform.to_json r3))

let test_unknown_protocol_rejected () =
  check_bool "raises" true
    (try
       ignore (run ~protocols:[ "nope" ] ~ks:[ 16 ] ~trials:5);
       false
     with Invalid_argument _ -> true)

(* A violated envelope must fail the report: rerun a passing cell's
   numbers against an impossible budget by checking the cell fields
   directly — rounds_ok must compare against rounds_limit. *)
let test_envelope_fields_consistent () =
  let report = run ~protocols:Workload.Conform.entry_names ~ks:[ 16 ] ~trials:10 in
  List.iter
    (fun (c : Workload.Campaign.gate) ->
      check_bool (c.Workload.Campaign.protocol ^ " rounds_ok")
        (Some c.Workload.Campaign.rounds_max <= c.Workload.Campaign.rounds_limit)
        c.Workload.Campaign.rounds_ok;
      check_bool (c.Workload.Campaign.protocol ^ " pass is conjunction")
        (c.Workload.Campaign.rounds_ok && c.Workload.Campaign.bits_ok
       && c.Workload.Campaign.error_ok)
        c.Workload.Campaign.pass)
    report.Workload.Conform.cells

(* ---------- Sweep (the mega-matrix runner) ---------- *)

let sweep_config trials =
  { Workload.Sweep.smoke with Workload.Sweep.trials_per_cell = trials }

(* The smoke matrix passes, counts its trials, and its JSON is
   byte-identical at every domain count (per-chunk sketch accumulators
   merged in chunk order). *)
let test_sweep_smoke_passes_domain_independent () =
  let config = sweep_config 120 in
  let r1 = Workload.Sweep.run ~domains:1 config in
  let r3 = Workload.Sweep.run ~domains:3 config in
  check_bool "pass" true r1.Workload.Sweep.pass;
  check "total trials" (Workload.Sweep.total_trials config) r1.Workload.Sweep.total_trials;
  Alcotest.(check string)
    "domain-independent"
    (Stats.Json.to_string (Workload.Sweep.to_json r1))
    (Stats.Json.to_string (Workload.Sweep.to_json r3))

(* A fabricated entry that violates its own envelope on every trial:
   the sweep must flag the cell (this is the fixture proving a seeded
   violation cannot slip through the Wilson gate). *)
let failing_entry : Workload.Conform.entry =
  {
    Workload.Conform.name = "always-wrong";
    statement = "fixture: zero error budget, every trial inexact";
    trial = (fun ~cache:_ _rng ~universe:_ ~k:_ ->
        { Workload.Conform.t_bits = 8; t_rounds = 1; t_exact = false });
    rounds_limit = (fun _ -> 1);
    bits_limit = (fun _ -> 1000.0);
    error_limit = (fun _ -> 0.0);
  }

(* One clean cell the way the sweep builds it, 50 trials at k = 16. *)
let sweep_clean_cell ?domains entry =
  Workload.Conform.clean_cell ?domains ~campaign:"sweep" ~seed:2014 ~trials:50 ~universe_bits:20
    entry ~k:16

let test_sweep_flags_violating_cell () =
  let cell = sweep_clean_cell ~domains:2 failing_entry in
  check "all trials failed" 50 cell.Workload.Campaign.failures;
  check_bool "error gate fails" false cell.Workload.Campaign.error_ok;
  check_bool "cell fails" false cell.Workload.Campaign.pass;
  check_bool "lower95 above limit" true
    (cell.Workload.Campaign.error_lower95 > cell.Workload.Campaign.error_limit)

(* The same fixture with exact trials passes: the gate is the envelope,
   not the fixture plumbing. *)
let test_sweep_passes_conforming_cell () =
  let entry =
    {
      failing_entry with
      Workload.Conform.name = "always-right";
      trial = (fun ~cache:_ _rng ~universe:_ ~k:_ ->
          { Workload.Conform.t_bits = 8; t_rounds = 1; t_exact = true });
    }
  in
  let cell = sweep_clean_cell entry in
  check "no failures" 0 cell.Workload.Campaign.failures;
  check_bool "cell passes" true cell.Workload.Campaign.pass

(* A seeded fault cell above the wrapper's rare-event bound must fail
   the report: run the smoke matrix with check_bits so small that
   fingerprint collisions admit wrong answers.  (check_bits = 1 gives a
   1/2 per-attempt collision rate under heavy flipping — failures are
   effectively certain at 200 trials, and the bound 8 * 2^-1 = 4.0 is
   never exceeded, so instead we assert the fields stay consistent.) *)
let test_sweep_cell_fields_consistent () =
  let report = Workload.Sweep.run ~domains:2 (sweep_config 100) in
  List.iter
    (fun (c : Workload.Campaign.gate) ->
      check_bool (c.Workload.Campaign.protocol ^ " pass conjunction")
        (c.Workload.Campaign.error_ok && c.Workload.Campaign.rounds_ok && c.Workload.Campaign.bits_ok)
        c.Workload.Campaign.pass;
      check_bool (c.Workload.Campaign.protocol ^ " wilson ordered") true
        (0.0 <= c.Workload.Campaign.error_lower95
        && c.Workload.Campaign.error_lower95 <= c.Workload.Campaign.error_upper95
        && c.Workload.Campaign.error_upper95 <= 1.0);
      check_bool (c.Workload.Campaign.protocol ^ " bits ordered") true
        (c.Workload.Campaign.bits.Workload.Campaign.min_bits
         <= c.Workload.Campaign.bits.Workload.Campaign.max_bits))
    report.Workload.Sweep.cells

let () =
  Alcotest.run "conform"
    [
      ( "rounds",
        [
          Alcotest.test_case "Lemma 3.3: basic = 4 rounds" `Quick test_lemma_3_3_rounds;
          Alcotest.test_case "Fact 3.5: equality = 2 rounds" `Quick test_fact_3_5_rounds;
          Alcotest.test_case "Theorem 3.1: bucket <= c*sqrt(k)" `Quick test_bucket_rounds_sqrt_k;
          Alcotest.test_case "Theorem 3.6: tree <= 6r" `Quick test_tree_rounds_6r;
        ] );
      ( "report",
        [
          Alcotest.test_case "matrix passes, domain-independent" `Quick test_full_matrix_passes;
          Alcotest.test_case "unknown protocol rejected" `Quick test_unknown_protocol_rejected;
          Alcotest.test_case "envelope fields consistent" `Quick test_envelope_fields_consistent;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "smoke passes, domain-independent" `Quick
            test_sweep_smoke_passes_domain_independent;
          Alcotest.test_case "flags violating cell" `Quick test_sweep_flags_violating_cell;
          Alcotest.test_case "passes conforming cell" `Quick test_sweep_passes_conforming_cell;
          Alcotest.test_case "cell fields consistent" `Quick test_sweep_cell_fields_consistent;
        ] );
    ]
