(* The phase registry: one constructor per span name.  [Trace.span]
   takes a [t], so a phase name cannot drift from this list. *)

type t =
  | App_join | App_similarity | App_sketch | App_sync | App_union
  | Bi_sizes | Bi_tags
  | Bucket_assign | Bucket_eq
  | Disj_round
  | Eq_exact | Eq_joint | Eq_tags
  | Multiparty_broadcast
  | Orh_tags
  | Private_seed
  | Resilient_attempt | Resilient_fallback | Resilient_verify
  | Session_attempt | Session_backoff | Session_fallback | Session_resume
  | Star_coordinate | Star_pair
  | Telemetry_health | Telemetry_snapshot
  | Tour_pass | Tour_root_check | Tour_verdict
  | Tree_eq | Tree_fallback | Tree_rerun
  | Trivial_offer | Trivial_reply
  | Verified_attempt | Verified_check

let name = function
  | App_join -> "app/join"
  | App_similarity -> "app/similarity"
  | App_sketch -> "app/sketch"
  | App_sync -> "app/sync"
  | App_union -> "app/union"
  | Bi_sizes -> "bi/sizes"
  | Bi_tags -> "bi/tags"
  | Bucket_assign -> "bucket/assign"
  | Bucket_eq -> "bucket/eq"
  | Disj_round -> "disj/round"
  | Eq_exact -> "eq/exact"
  | Eq_joint -> "eq/joint"
  | Eq_tags -> "eq/tags"
  | Multiparty_broadcast -> "multiparty/broadcast"
  | Orh_tags -> "orh/tags"
  | Private_seed -> "private/seed"
  | Resilient_attempt -> "resilient/attempt"
  | Resilient_fallback -> "resilient/fallback"
  | Resilient_verify -> "resilient/verify"
  | Session_attempt -> "session/attempt"
  | Session_backoff -> "session/backoff"
  | Session_fallback -> "session/fallback"
  | Session_resume -> "session/resume"
  | Star_coordinate -> "star/coordinate"
  | Star_pair -> "star/pair"
  | Telemetry_health -> "telemetry/health"
  | Telemetry_snapshot -> "telemetry/snapshot"
  | Tour_pass -> "tour/pass"
  | Tour_root_check -> "tour/root-check"
  | Tour_verdict -> "tour/verdict"
  | Tree_eq -> "tree/eq"
  | Tree_fallback -> "tree/fallback"
  | Tree_rerun -> "tree/rerun"
  | Trivial_offer -> "trivial/offer"
  | Trivial_reply -> "trivial/reply"
  | Verified_attempt -> "verified/attempt"
  | Verified_check -> "verified/check"

let unattributed = "(unattributed)"

module For_testing = struct
  let all =
    [
      App_join; App_similarity; App_sketch; App_sync; App_union;
      Bi_sizes; Bi_tags;
      Bucket_assign; Bucket_eq;
      Disj_round;
      Eq_exact; Eq_joint; Eq_tags;
      Multiparty_broadcast;
      Orh_tags;
      Private_seed;
      Resilient_attempt; Resilient_fallback; Resilient_verify;
      Session_attempt; Session_backoff; Session_fallback; Session_resume;
      Star_coordinate; Star_pair;
      Telemetry_health; Telemetry_snapshot;
      Tour_pass; Tour_root_check; Tour_verdict;
      Tree_eq; Tree_fallback; Tree_rerun;
      Trivial_offer; Trivial_reply;
      Verified_attempt; Verified_check;
    ]
end
