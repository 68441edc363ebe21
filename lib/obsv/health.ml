(* SLO evaluation over a snapshot stream.  The metric-name contract
   below is the single source of truth shared with the fleet harness
   (Workload.Telemetry): the harness writes these names, the evaluator
   reads them back from a Snapshot.t. *)

let k_sessions = "fleet/sessions"
let k_wrong = "fleet/wrong"
let k_attempts = "fleet/attempts"
let k_resumes = "fleet/resumes"
let k_outcome outcome = "fleet/outcome/" ^ outcome
let k_failure kind = "fleet/failures/" ^ kind
let k_spent_bits = "fleet/spent_bits"
let k_backoff_ticks = "fleet/backoff_ticks"
let k_wasted_bits = "fleet/wasted_bits"
let k_deadline_bits = "fleet/deadline_bits"

type slos = {
  max_failed_safe_per_mille : int;
  max_degraded_per_mille : int;
  max_p99_burn_per_mille : int;
}

(* Wrong answers are not an SLO parameter: the bound is 0, always (the
   session layer's core guarantee).  The defaults below say: at most 5%
   of sessions may end failed-safe, at most 25% may need the degraded
   fallback, and the p99 session must burn at most 90% of its deadline. *)
let default_slos =
  { max_failed_safe_per_mille = 50; max_degraded_per_mille = 250; max_p99_burn_per_mille = 900 }

type verdict = { slo : string; ok : bool; measured : int; limit : int; detail : string }

type report = { ok : bool; sessions : int; verdicts : verdict list }

let per_mille part whole = if whole <= 0 then 0 else part * 1000 / whole

let evaluate ?(slos = default_slos) snap =
  Trace.span Phases.Telemetry_health (fun () ->
      let sessions = Snapshot.counter snap k_sessions in
      let wrong = Snapshot.counter snap k_wrong in
      let failed_safe = Snapshot.counter snap (k_outcome "failed_safe") in
      let degraded = Snapshot.counter snap (k_outcome "degraded") in
      let observed =
        {
          slo = "sessions-observed";
          ok = sessions > 0;
          measured = sessions;
          limit = 1;
          detail = "at least one session must have been observed";
        }
      in
      let wrong_v =
        {
          slo = "wrong-rate-zero";
          ok = wrong = 0;
          measured = wrong;
          limit = 0;
          detail = "wrong intersections reported (the bound is 0, always)";
        }
      in
      let failed_v =
        let m = per_mille failed_safe sessions in
        {
          slo = "failed-safe-rate";
          ok = m <= slos.max_failed_safe_per_mille;
          measured = m;
          limit = slos.max_failed_safe_per_mille;
          detail = Printf.sprintf "%d of %d sessions ended failed-safe" failed_safe sessions;
        }
      in
      let degraded_v =
        let m = per_mille degraded sessions in
        {
          slo = "degraded-rate";
          ok = m <= slos.max_degraded_per_mille;
          measured = m;
          limit = slos.max_degraded_per_mille;
          detail = Printf.sprintf "%d of %d sessions used the degraded fallback" degraded sessions;
        }
      in
      let burn_v =
        match (Snapshot.sketch snap k_spent_bits, Snapshot.gauge snap k_deadline_bits) with
        | Some sk, Some deadline when deadline > 0 ->
            let m = per_mille sk.Snapshot.s_p99 deadline in
            Some
              {
                slo = "p99-budget-burn";
                ok = m <= slos.max_p99_burn_per_mille;
                measured = m;
                limit = slos.max_p99_burn_per_mille;
                detail =
                  Printf.sprintf "p99 session spent %d of a %d-bit deadline" sk.Snapshot.s_p99
                    deadline;
              }
        | _ -> None
      in
      let verdicts =
        [ observed; wrong_v; failed_v; degraded_v ]
        @ (match burn_v with Some v -> [ v ] | None -> [])
      in
      { ok = List.for_all (fun (v : verdict) -> v.ok) verdicts; sessions; verdicts })

let verdict_json v =
  Stats.Json.Obj
    [
      ("slo", Stats.Json.Str v.slo);
      ("ok", Stats.Json.Bool v.ok);
      ("measured", Stats.Json.Int v.measured);
      ("limit", Stats.Json.Int v.limit);
      ("detail", Stats.Json.Str v.detail);
    ]

let to_json r =
  Stats.Json.Obj
    [
      ("event", Stats.Json.Str "health");
      ("ok", Stats.Json.Bool r.ok);
      ("sessions", Stats.Json.Int r.sessions);
      ("verdicts", Stats.Json.List (List.map verdict_json r.verdicts));
    ]

let slos_json s =
  Stats.Json.Obj
    [
      ("max_failed_safe_per_mille", Stats.Json.Int s.max_failed_safe_per_mille);
      ("max_degraded_per_mille", Stats.Json.Int s.max_degraded_per_mille);
      ("max_p99_burn_per_mille", Stats.Json.Int s.max_p99_burn_per_mille);
    ]

let table r =
  let t =
    Stats.Table.create ~title:"SLO health"
      ~columns:[ "slo"; "status"; "measured"; "limit"; "detail" ]
  in
  List.iter
    (fun v ->
      Stats.Table.add_row t
        [
          v.slo;
          (if v.ok then "ok" else "VIOLATED");
          string_of_int v.measured;
          string_of_int v.limit;
          v.detail;
        ])
    r.verdicts;
  t
