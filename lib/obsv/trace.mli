(** Phase-attributed tracing.

    A {!collector} records a timeline of {e spans} (named phases of a
    protocol, opened and closed by the code that implements them) and
    {e message events} (one per payload that crosses the simulated wire,
    recorded by {!Commsim.Network}).  Every message is attributed to the
    innermost span its {e sender} had open at send time, so per-phase
    communication budgets fall out of the record exactly: summing message
    bits per span name reproduces [Cost.total_bits] with no double counting.

    Time is a deterministic event sequence number (span open, message, span
    close each advance it by one), never a wall clock, so a fixed seed
    yields a byte-identical trace.

    The collector is ambient: {!with_collector} installs one for the
    duration of a run and instrumented code calls {!span} without threading
    a handle.  The default is {!disabled}, a shared no-op: when nobody is
    tracing, {!span}, {!attr} and {!attr_string} each cost one load and
    one branch and allocate nothing, and the simulator's cost accounting
    is untouched either way.  That holds for a whole span site too:
    attributes are set from the span's body, and {!attr} turns its int
    into a string only when a collector is recording, so a disabled site
    allocates nothing but its body closure (none when the closure
    captures no variable). *)

type attr = string * string

type span = {
  id : int;  (** 1-based, in creation order *)
  phase : Phases.t;
  mutable attrs : attr list;  (** in the order the body set them *)
  rank : int option;  (** opening player, [None] = orchestrator code *)
  parent : int option;  (** enclosing span id *)
  start_seq : int;
  mutable end_seq : int;  (** [-1] while open (player abandoned mid-span) *)
  mutable bits : int;  (** payload bits attributed directly to this span *)
  mutable messages : int;
}

type message = {
  seq : int;
  from_ : int;
  to_ : int;
  bits : int;
  depth : int;  (** causal depth: the longest message chain ending here (its round) *)
  span : int option;  (** innermost open span of the sender *)
}

type collector

(** The shared no-op collector (the ambient default). *)
val disabled : collector

val create : unit -> collector
val enabled : collector -> bool

(** The ambient collector ({!disabled} unless inside {!with_collector}). *)
val current : unit -> collector

(** [with_collector c f] installs [c] as the ambient collector for the
    duration of [f] (restored on exception). *)
val with_collector : collector -> (unit -> 'a) -> 'a

exception Abandoned
(** What {!Commsim.Network} unwinds a player still blocked in a receive
    with when an execution ends.  Player code must let it pass. *)

(** [span phase f] runs [f] inside a span named [Phases.name phase] on
    the ambient collector.  Inside a simulated execution the span belongs
    to the player whose code opened it; outside it belongs to the
    orchestrator and acts as a fallback parent for every player.  It
    closes when [f] returns or raises, except on {!Abandoned}: then it
    stays open ([end_seq = -1]), as if its player had never resumed, and
    exporters end it at {!final_seq}.  No-op when tracing is disabled. *)
val span : Phases.t -> (unit -> 'a) -> 'a

(** [attr key n] records the attribute [(key, string_of_int n)] on the
    span the calling code opened last, so called from the first lines of
    a span's body it lands on that span.  No-op (no allocation) when
    tracing is disabled. *)
val attr : string -> int -> unit

(** [attr_string key v] is {!attr} for a string value. *)
val attr_string : string -> string -> unit

(** Scheduler hook: the player about to run ([None] outside a simulated
    execution).  Called by {!Commsim.Network}. *)
val set_rank : collector -> int option -> unit

(** Scheduler hook: record one delivered payload, attributed to the
    sender's innermost open span.  Called by {!Commsim.Network} at delivery
    time; a no-op when disabled. *)
val on_message : collector -> from_:int -> to_:int -> bits:int -> depth:int -> unit

(** All spans in creation order. *)
val spans : collector -> span list

(** All message events in send (delivery) order. *)
val messages : collector -> message list

(** The sequence number one past the last event; exporters use it to close
    spans whose players never returned. *)
val final_seq : collector -> int
