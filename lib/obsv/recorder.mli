(** A bounded per-session flight recorder: a fixed-capacity ring buffer of
    structured session events (ladder transitions, backoff, checkpoint,
    deadline and fault diagnoses) kept so that {e when} a session ends in
    a non-exact outcome, the last [capacity] events can be dumped as a
    structured post-mortem — without paying for event storage growth on
    the happy path.

    Like {!Trace} and {!Metrics} the recorder is ambient with a shared
    {!disabled} default, so the instrumented hot path costs one
    domain-local load and one branch when flight recording is off.

    {b Write discipline.}  {!event} is the only write entry point, and
    lint rule R6 restricts its call sites to [lib/session] and
    [lib/obsv]: the recorder narrates the session state machine, it is
    not a general logging facility.  Reading ({!events},
    {!post_mortem_json}) is unrestricted. *)

type ev = { seq : int; kind : string; detail : string; attrs : (string * string) list }
type t

val default_capacity : int

(** [create ?capacity ()] makes an enabled recorder holding the last
    [capacity] (default {!default_capacity}) events.  Raises
    [Invalid_argument] if [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

(** The shared no-op recorder (the ambient default). *)
val disabled : t

(** [active ()] is true when the ambient recorder is enabled — use it to
    guard any formatting work at the call site. *)
val active : unit -> bool

val with_recorder : t -> (unit -> 'a) -> 'a

(** [event ?attrs ~kind detail] appends an event, overwriting the oldest
    once the ring is full.  No-op (and allocation-free) on a disabled
    recorder.  Restricted write entry point — see the module preamble. *)
val event : ?attrs:(string * string) list -> kind:string -> string -> unit

(** Events ever offered (including overwritten ones). *)
val recorded : t -> int

(** Events currently held ([min recorded capacity]). *)
val retained : t -> int

(** Events lost to the ring bound ([recorded - capacity], at least 0). *)
val dropped : t -> int

val capacity : t -> int

(** Surviving window, oldest first; [seq] exposes each event's position
    in the full (pre-drop) stream. *)
val events : t -> ev list

(** Structured dump: outcome (if given), recorded/dropped/capacity, and
    the surviving events.  Assembled lazily by the caller that decides a
    post-mortem is warranted — recording never formats. *)
val post_mortem_json : ?outcome:string -> t -> Stats.Json.t
