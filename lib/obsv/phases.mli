(** The phase registry: one constructor per phase a {!Trace.span} may
    open, extracted from the instrumented protocols so the names have a
    single source of truth.

    {!Trace.span} takes a {!t}, so the type checker rejects a phase that
    is not listed here: a typo'd phase cannot land silently in a fresh
    misspelled ledger bucket.  The reverse direction, a constructor no
    span site builds, is lint rule R10.  To add a phase, add a
    constructor and its {!name}, and build it at the call site.

    Each constructor spells its span name: [Bucket_assign] is
    ["bucket/assign"], [Tour_root_check] is ["tour/root-check"]. *)

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

(** The phase's span name, as it appears in every export and ledger
    (["bucket/assign"], ["tree/rerun"], ...).  Injective, and never equal
    to {!unattributed}. *)
val name : t -> string

(** Ledger row name {!Export} uses for messages sent outside any span. *)
val unattributed : string

(** Test references. *)
module For_testing : sig

  val all : t list
end
