(** A deterministic session state machine that drives one INT_k
    reconciliation to a guaranteed structured outcome under adversity.

    {!Resilient} answers "how do we survive a faulty channel inside one
    run"; this module answers the operational question one level up: a
    {e session} owns an event-time deadline budget, walks a
    graceful-degradation ladder, and always terminates with a structured
    {!outcome} — a verified result, a degraded-but-exact result from the
    deterministic fallback, or a failed-safe report carrying a best-effort
    partial and a {!diagnosis}.  It never reports a wrong intersection:
    every accepting rung runs over {!Resilient.guard}ed transport with a
    two-sided equality check, and the fallback is the deterministic
    exchange.

    {2 The ladder}

    Attempts are numbered from 1 and mapped to rungs: attempt 1 is the
    {e base} rung (one optimistic guarded execution at [check_bits0]);
    the next [rung_attempts] attempts are the {e guarded-retry} rung
    (fresh per-attempt channel noise and randomness; a rejected check
    doubles the width, Resilient-style); the next [rung_attempts] are the
    {e widened} rung (the width doubles unconditionally before every
    attempt, capped at 512); after that — or as soon as the deadline is
    exhausted — the session degrades to the deterministic {e fallback}
    exchange over a reliable link, admitted only if the remaining budget
    covers a conservative cost bound ({e reserve}).  If even the reserve
    does not fit, the session ends {e failed-safe}.

    {2 Determinism}

    Everything is a pure function of [(config, s, t)]: per-attempt
    randomness comes from the shared random string under
    ["session/attempt<i>"] labels, channel noise from [plan] reseeded with
    the attempt index, and retry pauses from {!Backoff} — event-time ticks
    charged against the same deadline as wire bits, never a wall clock.
    A session interrupted at any checkpoint boundary and resumed via
    {!restore} replays the identical remaining schedule, so the final
    result and cost ledger are byte-identical to the uninterrupted run
    (only [resumes] differs). *)

type config = {
  seed : int;  (** root of the session's shared random string *)
  protocol : string;  (** base protocol: ["trivial"], ["tree"] or ["bucket"] *)
  k : int;  (** set-size bound handed to the base protocol *)
  universe_bits : int;  (** universe is [2^universe_bits]; in [\[1, 30\]] *)
  plan : Commsim.Faults.plan;  (** channel adversary (reseeded per attempt) *)
  deadline_bits : int;  (** event-time budget: wire bits + backoff ticks *)
  rung_attempts : int;  (** attempts per retry rung of the ladder *)
  check_bits0 : int;  (** initial equality-check width *)
  backoff_base : int;  (** backoff ceiling for attempt 1 (0 disables) *)
  backoff_cap : int;  (** backoff ceiling saturation *)
}

(** Conservative defaults: bucket protocol, 16-bit universe, seed 1, a
    2M-bit deadline, 3 attempts per rung, [max 24 k] initial width,
    backoff 64 capped at 4096. *)
val default : k:int -> plan:Commsim.Faults.plan -> config

(** Ladder position.  {!Exhausted} never hosts an attempt; it marks a
    failed-safe report. *)
type rung = Base | Guarded | Widened | Fallback | Exhausted

val rung_name : rung -> string

(** Why an attempt (or the whole session) failed: a rejected equality
    check, a wedged conversation (stall detected by the scheduler — the
    event-time analogue of a watchdog timeout), a party abort on detected
    corruption, or the deadline budget running out. *)
type failure_kind = Rejected | Stalled | Crashed | Deadline

val kind_name : failure_kind -> string
val kind_of_name : string -> failure_kind option

(** What the session spent.  [spent_bits] charges what the senders put on
    the wire: delivered payload plus bits the adversary dropped or
    truncated away ({!Commsim.Cost} alone meters only delivered copies, so
    a black-hole link would otherwise look free).  [wasted_bits] is the
    same measure restricted to attempts that produced nothing; [cost] is
    the aggregate simulator cost (attempts plus fallback, delivered bits
    only). *)
type ledger = {
  spent_bits : int;
  backoff_ticks : int;
  wasted_bits : int;
  cost : Commsim.Cost.t;
}

(** Structured post-mortem attached to a failed-safe outcome. *)
type diagnosis = {
  reason : string;
  rejected : int;  (** attempts ended by a rejected check *)
  stalled : int;  (** attempts wedged on dropped messages *)
  crashed : int;  (** attempts aborted on detected corruption *)
  last_failure : (failure_kind * string) option;
  remaining_bits : int;  (** deadline minus spend (can be negative) *)
  reserve_bits : int;  (** fallback admission bound that did not fit *)
}

(** The guaranteed structured ending.  [Completed] and [Degraded] results
    are exact (up to the [2^-width] check-collision bound inherited from
    {!Resilient}); a [Failed_safe] partial is {e unverified} best-effort
    evidence and must never be treated as the intersection. *)
type outcome =
  | Completed of Iset.t  (** a guarded attempt's check accepted *)
  | Degraded of Iset.t  (** exact result from the deterministic fallback *)
  | Failed_safe of { partial : Iset.t option; diagnosis : diagnosis }

type report = {
  outcome : outcome;
  attempts : int;  (** faulty attempts executed (fallback excluded) *)
  resumes : int;  (** times the session was restored from a checkpoint *)
  final_rung : rung;
  final_width : int;  (** check width of the last attempt *)
  failures : (failure_kind * string) list;  (** chronological *)
  ledger : ledger;
}

(** Opaque in-flight session. *)
type state

type progress = Running of state | Done of report

(** [start cfg] validates [cfg] (raising [Invalid_argument] on a bad
    field or unknown protocol) and returns the initial state. *)
val start : config -> state

(** [step st ~s ~t] advances the session by exactly one ladder action:
    one guarded attempt, the fallback exchange, or the failed-safe
    verdict.  [Running] states returned by [step] are exactly the
    checkpoint boundaries. *)
val step : state -> s:Iset.t -> t:Iset.t -> progress

(** Snapshot the state between steps ({!Checkpoint}). *)
val checkpoint : state -> Checkpoint.t

(** [restore cfg ck] rebuilds a state from a snapshot, refusing a
    fingerprint mismatch (the snapshot was taken under a different
    config) or an unknown failure kind.  The restored state has
    [resumes] incremented. *)
val restore : config -> Checkpoint.t -> (state, string) result

(** [run ?on_checkpoint cfg ~s ~t] drives a fresh session to completion;
    [on_checkpoint] observes the snapshot after every non-final step. *)
val run : ?on_checkpoint:(Checkpoint.t -> unit) -> config -> s:Iset.t -> t:Iset.t -> report

(** [resume ?on_checkpoint cfg ck ~s ~t] is {!restore} followed by the
    same drive loop as {!run}. *)
val resume :
  ?on_checkpoint:(Checkpoint.t -> unit) ->
  config ->
  Checkpoint.t ->
  s:Iset.t ->
  t:Iset.t ->
  (report, string) result

val outcome_name : outcome -> string

(** The exact result, if the session produced one ([None] for
    failed-safe; the unverified partial deliberately does not qualify). *)
val result_of : outcome -> Iset.t option

(** Test instruments. *)
module For_testing : sig
  (** The whole report as JSON, for pinning a session byte for byte. *)
  val report_json : report -> Stats.Json.t
end
