(* Tests for the session robustness layer: seeded backoff, checkpoint
   codec round-trips and rejections, the degradation ladder's outcomes,
   resume determinism at every checkpoint boundary, exhaustion safety
   (never a wrong intersection), and the chaos harness's invariant and
   reproducibility. *)

module M = Session.Machine

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let s8 = [| 1; 3; 5; 7; 9; 11; 13; 15 |]
let t8 = [| 3; 4; 5; 6; 9; 10; 13; 14 |]
let truth = Iset.inter s8 t8

let config ?(seed = 5) ?(protocol = "trivial") ?(deadline = 200_000) ?(rung_attempts = 2)
    ?(check_bits0 = 16) ?(backoff_base = 8) ?(backoff_cap = 64) plan =
  {
    M.seed;
    protocol;
    k = 8;
    universe_bits = 10;
    plan;
    deadline_bits = deadline;
    rung_attempts;
    check_bits0;
    backoff_base;
    backoff_cap;
  }

let drop_all = Commsim.Faults.uniform ~seed:11 (Commsim.Faults.dropping 1.0)
let drop_some ~seed = Commsim.Faults.uniform ~seed (Commsim.Faults.dropping 0.45)

(* ---------- Backoff: pure, bounded, capped ---------- *)

let test_backoff_deterministic () =
  for attempt = 1 to 6 do
    let a = Session.Backoff.ticks ~seed:9 ~base:16 ~cap:256 ~attempt in
    let b = Session.Backoff.ticks ~seed:9 ~base:16 ~cap:256 ~attempt in
    check "same args, same ticks" a b
  done

let test_backoff_bounds () =
  for attempt = 1 to 8 do
    let ceiling = min 256 (16 * (1 lsl (attempt - 1))) in
    let t = Session.Backoff.ticks ~seed:3 ~base:16 ~cap:256 ~attempt in
    check_bool "within [c/2, c]" true (t >= ceiling / 2 && t <= ceiling)
  done;
  check "base 0 disables backoff" 0 (Session.Backoff.ticks ~seed:3 ~base:0 ~cap:256 ~attempt:4)

let test_backoff_seed_varies () =
  let distinct =
    List.sort_uniq compare
      (List.init 16 (fun seed -> Session.Backoff.ticks ~seed ~base:64 ~cap:4096 ~attempt:3))
  in
  check_bool "different seeds spread the jitter" true (List.length distinct > 1)

(* ---------- Ladder outcomes ---------- *)

let test_clean_completes_first_try () =
  let report = M.run (config Commsim.Faults.clean) ~s:s8 ~t:t8 in
  check_str "completed" "completed" (M.outcome_name report.M.outcome);
  check "one attempt" 1 report.M.attempts;
  check_str "base rung" "base" (M.rung_name report.M.final_rung);
  check_bool "exact" true (M.result_of report.M.outcome = Some truth);
  check "no failures" 0 (List.length report.M.failures);
  check "no backoff" 0 report.M.ledger.M.backoff_ticks;
  check "no waste" 0 report.M.ledger.M.wasted_bits

let test_black_hole_degrades_exactly () =
  (* Every message dropped: all 1 + 2*rung_attempts ladder attempts stall,
     then the deterministic fallback still produces exactly S ∩ T. *)
  let report = M.run (config drop_all) ~s:s8 ~t:t8 in
  check_str "degraded" "degraded" (M.outcome_name report.M.outcome);
  check_str "fallback rung" "fallback" (M.rung_name report.M.final_rung);
  check "all ladder attempts spent" 5 report.M.attempts;
  check "one failure per attempt" 5 (List.length report.M.failures);
  List.iter
    (fun (kind, _) -> check_str "stalled" "stalled" (M.kind_name kind))
    report.M.failures;
  check_bool "fallback result exact" true (M.result_of report.M.outcome = Some truth);
  check_bool "waste accounted" true (report.M.ledger.M.wasted_bits > 0);
  check_bool "backoff accounted" true (report.M.ledger.M.backoff_ticks > 0)

let test_widened_rung_doubles () =
  (* Stalls never widen the check on base/guarded rungs; the widened rung
     doubles unconditionally: 16 -> 32 -> 64 across its two attempts. *)
  let report = M.run (config drop_all) ~s:s8 ~t:t8 in
  check "width doubled on the widened rung" 64 report.M.final_width

let test_tight_deadline_fails_safe () =
  let report = M.run (config ~deadline:60 drop_all) ~s:s8 ~t:t8 in
  check_str "failed_safe" "failed_safe" (M.outcome_name report.M.outcome);
  check_str "exhausted rung" "exhausted" (M.rung_name report.M.final_rung);
  check_bool "no exact result claimed" true (M.result_of report.M.outcome = None);
  match report.M.outcome with
  | M.Failed_safe { diagnosis; _ } ->
      check_bool "diagnosis counts the stalls" true (diagnosis.M.stalled >= 1);
      check_bool "deadline recorded as a failure" true
        (List.exists (fun (k, _) -> k = M.Deadline) report.M.failures);
      check_bool "remaining below the reserve" true
        (diagnosis.M.remaining_bits < diagnosis.M.reserve_bits)
  | _ -> Alcotest.fail "expected Failed_safe"

let test_exhaustion_never_wrong () =
  (* Whatever the adversity and however tight the budget, an exact-claiming
     outcome (completed or degraded) must be S ∩ T. *)
  List.iter
    (fun deadline ->
      for seed = 1 to 25 do
        let cfg = config ~seed ~deadline (drop_some ~seed:(seed * 7)) in
        let report = M.run cfg ~s:s8 ~t:t8 in
        match M.result_of report.M.outcome with
        | Some result -> check_bool "exact or nothing" true (Iset.equal result truth)
        | None -> ()
      done)
    [ 60; 400; 2_000; 200_000 ]

let test_stall_diagnosis_carries_drop_site () =
  let report = M.run (config drop_all) ~s:s8 ~t:t8 in
  match report.M.failures with
  | (M.Stalled, detail) :: _ ->
      check_bool "diagnosis names the first dropped message" true
        (let sub = "first drop" in
         let n = String.length detail and m = String.length sub in
         let rec scan i = i + m <= n && (String.sub detail i m = sub || scan (i + 1)) in
         scan 0)
  | _ -> Alcotest.fail "expected a stall failure first"

(* ---------- Checkpoint codec ---------- *)

let mid_session_checkpoint () =
  let cfg = config drop_all in
  match M.step (M.start cfg) ~s:s8 ~t:t8 with
  | M.Running st -> M.checkpoint st
  | M.Done _ -> Alcotest.fail "black-hole session cannot finish in one step"

let test_checkpoint_roundtrip () =
  let ck = mid_session_checkpoint () in
  match Session.Checkpoint.of_string (Session.Checkpoint.to_string ck) with
  | Error e -> Alcotest.fail e
  | Ok ck' -> check_bool "codec round-trips exactly" true (ck = ck')

let test_checkpoint_rejects_garbage () =
  let bad input =
    match Session.Checkpoint.of_string input with Error _ -> true | Ok _ -> false
  in
  check_bool "not JSON" true (bad "{");
  check_bool "not an object" true (bad "[1,2]");
  check_bool "missing fields" true (bad "{\"version\": 1}");
  check_bool "wrong version" true
    (bad
       "{\"version\":99,\"fingerprint\":\"x\",\"attempts\":0,\"resumes\":0,\"width\":16,\
        \"spent_bits\":0,\"backoff_ticks\":0,\"wasted_bits\":0,\"failures\":[],\
        \"candidate\":null,\"cost\":{\"players\":[{\"sent_bits\":0,\"received_bits\":0,\
        \"sent_messages\":0},{\"sent_bits\":0,\"received_bits\":0,\"sent_messages\":0}],\
        \"total_bits\":0,\"messages\":0,\"rounds\":0}}")

let test_checkpoint_rejects_invalid_candidate () =
  match
    Session.Checkpoint.of_string
      "{\"version\":1,\"fingerprint\":\"x\",\"attempts\":1,\"resumes\":0,\"width\":16,\
       \"spent_bits\":10,\"backoff_ticks\":0,\"wasted_bits\":10,\"failures\":[],\
       \"candidate\":[5,3],\"cost\":{\"players\":[{\"sent_bits\":5,\"received_bits\":0,\
       \"sent_messages\":1},{\"sent_bits\":0,\"received_bits\":5,\"sent_messages\":0}],\
       \"total_bits\":5,\"messages\":1,\"rounds\":1}}"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsorted candidate must be rejected"

let test_restore_rejects_fingerprint_mismatch () =
  let ck = mid_session_checkpoint () in
  let other = config ~seed:6 drop_all in
  match M.restore other ck with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restore under a different config must fail"

(* ---------- Resume determinism ---------- *)

let replay_eq (a : M.report) (b : M.report) =
  M.outcome_name a.M.outcome = M.outcome_name b.M.outcome
  && M.result_of a.M.outcome = M.result_of b.M.outcome
  && a.M.attempts = b.M.attempts
  && a.M.final_rung = b.M.final_rung
  && a.M.final_width = b.M.final_width
  && a.M.failures = b.M.failures
  && a.M.ledger = b.M.ledger

let test_resume_identical_at_every_boundary () =
  (* Interrupt the session at EVERY checkpoint boundary in turn; each
     serialized-and-reparsed resume must replay the uninterrupted run to
     the byte (result, failures, and the full cost ledger). *)
  let total_boundaries = ref 0 in
  List.iter
    (fun seed ->
      let cfg = config ~seed (drop_some ~seed:(31 * seed)) in
      let boundaries = ref [] in
      let full = M.run ~on_checkpoint:(fun ck -> boundaries := ck :: !boundaries) cfg ~s:s8 ~t:t8 in
      (* A lucky seed may complete on the first attempt and offer no
         boundary; the aggregate check below keeps the test honest. *)
      total_boundaries := !total_boundaries + List.length !boundaries;
      List.iter
        (fun ck ->
          match Session.Checkpoint.of_string (Session.Checkpoint.to_string ck) with
          | Error e -> Alcotest.fail e
          | Ok ck -> (
              match M.resume cfg ck ~s:s8 ~t:t8 with
              | Error e -> Alcotest.fail e
              | Ok resumed ->
                  check_bool "resumed run replays the uninterrupted one" true
                    (replay_eq full resumed);
                  check "resume counted" 1 resumed.M.resumes))
        !boundaries)
    [ 2; 3; 4; 5; 6 ];
  check_bool "some seed offered a boundary to interrupt at" true (!total_boundaries > 0)

let test_run_is_reproducible () =
  let cfg = config ~seed:9 (drop_some ~seed:77) in
  let a = M.run cfg ~s:s8 ~t:t8 and b = M.run cfg ~s:s8 ~t:t8 in
  check_bool "same config, same report" true (replay_eq a b);
  check_str "same JSON"
    (Stats.Json.to_string (M.For_testing.report_json a))
    (Stats.Json.to_string (M.For_testing.report_json b))

(* ---------- Resilient attempt log (session's raw material) ---------- *)

let test_resilient_attempt_log () =
  let plan = Commsim.Faults.uniform ~seed:13 (Commsim.Faults.dropping 0.5) in
  let report =
    Intersect.Resilient.run Intersect.Resilient.trivial_base ~plan
      ~budget:{ Intersect.Resilient.attempts = 4; bits = max_int }
      (Prng.Rng.of_int 5) ~universe:1024 s8 t8
  in
  let log = report.Intersect.Resilient.attempt_log in
  check "one row per attempt" report.Intersect.Resilient.attempts (List.length log);
  check "rows sum to faulty_bits" report.Intersect.Resilient.faulty_bits
    (List.fold_left (fun acc r -> acc + r.Intersect.Resilient.bits) 0 log);
  List.iteri
    (fun i row -> check "indices are 1-based and chronological" (i + 1) row.Intersect.Resilient.index)
    log;
  (* Every row but a final successful one explains its failure. *)
  let rec check_rows = function
    | [] -> ()
    | [ last ] ->
        check_bool "last row matches the verdict" true
          (if report.Intersect.Resilient.verified && not report.Intersect.Resilient.degraded
           then last.Intersect.Resilient.failure = None
           else last.Intersect.Resilient.failure <> None)
    | row :: rest ->
        check_bool "non-final rows carry failures" true (row.Intersect.Resilient.failure <> None);
        check_rows rest
  in
  check_rows log

(* ---------- Chaos harness ---------- *)

let chaos_config =
  {
    Workload.Chaos.smoke with
    Workload.Chaos.trials = 4;
    k = 8;
    universe_bits = 10;
    overlap = 4;
    protocols = [ "trivial" ];
  }

let test_chaos_invariant_holds () =
  let report = Workload.Chaos.run ~domains:2 chaos_config in
  Alcotest.(check (list string)) "no violations" [] (Workload.Chaos.invariant_violations report);
  check "a cell per protocol x campaign"
    (List.length chaos_config.Workload.Chaos.campaigns)
    (List.length report.Workload.Chaos.cells)

let test_chaos_deterministic_across_domains () =
  let a = Workload.Chaos.run ~domains:1 chaos_config in
  let b = Workload.Chaos.run ~domains:3 chaos_config in
  check_str "byte-identical reports across domain counts"
    (Stats.Json.to_string (Workload.Chaos.to_json a))
    (Stats.Json.to_string (Workload.Chaos.to_json b))

let () =
  Alcotest.run "session"
    [
      ( "backoff",
        [
          Alcotest.test_case "deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "bounds" `Quick test_backoff_bounds;
          Alcotest.test_case "seed varies jitter" `Quick test_backoff_seed_varies;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "clean completes first try" `Quick test_clean_completes_first_try;
          Alcotest.test_case "black hole degrades exactly" `Quick test_black_hole_degrades_exactly;
          Alcotest.test_case "widened rung doubles" `Quick test_widened_rung_doubles;
          Alcotest.test_case "tight deadline fails safe" `Quick test_tight_deadline_fails_safe;
          Alcotest.test_case "exhaustion never wrong" `Quick test_exhaustion_never_wrong;
          Alcotest.test_case "stall diagnosis names drop site" `Quick
            test_stall_diagnosis_carries_drop_site;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_checkpoint_rejects_garbage;
          Alcotest.test_case "rejects invalid candidate" `Quick
            test_checkpoint_rejects_invalid_candidate;
          Alcotest.test_case "restore rejects fingerprint mismatch" `Quick
            test_restore_rejects_fingerprint_mismatch;
        ] );
      ( "resume",
        [
          Alcotest.test_case "identical at every boundary" `Quick
            test_resume_identical_at_every_boundary;
          Alcotest.test_case "run reproducible" `Quick test_run_is_reproducible;
        ] );
      ( "resilient-log",
        [ Alcotest.test_case "attempt log invariants" `Quick test_resilient_attempt_log ] );
      ( "chaos",
        [
          Alcotest.test_case "invariant holds" `Quick test_chaos_invariant_holds;
          Alcotest.test_case "deterministic across domains" `Quick
            test_chaos_deterministic_across_domains;
        ] );
    ]
