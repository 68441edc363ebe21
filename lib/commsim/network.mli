(** The message-passing model of Section 4 ([BEO+13]): [m] players, arbitrary
    point-to-point messages, costs counted in bits and rounds.

    Players are ordinary OCaml functions run as cooperative coroutines
    (OCaml 5 effect handlers).  A player function receives only its
    {!endpoint} — it has no reference to the other players' inputs, so the
    information barrier of the communication model is enforced by scoping,
    not by convention.  The scheduler delivers messages, meters every
    payload, and tracks rounds as the longest chain of causally dependent
    messages (see {!Cost}).

    A message costs its receiver's one suspension and nothing else.  A
    send never blocks, so it delivers by a direct call from the sender's
    code; a receive with a message waiting consumes it directly.  Only a
    receive on an empty inbox performs an effect (one preallocated value,
    handled by one handler built per run), and the player resumes when
    the scheduler's run queue reaches it after a matching delivery.
    Each directed link's inbox is a growable ring of payloads and causal
    depths, and the run queue a ring of ranks.  Players switch only
    inside a blocking receive.

    The one record of an execution's messages is the ambient
    {!Obsv.Trace} collector's: under {!Obsv.Trace.with_collector}, {!run}
    and {!run_faulty} record each metered delivery, in delivery order,
    as an {!Obsv.Trace.message} (sender, recipient, bits, causal depth
    and the sender's innermost open span).  Invariants (tested): one
    event per delivered copy, event bits sum to [Cost.total_bits], and
    the maximum depth equals [Cost.rounds]. *)

type endpoint

(** This player's index in [\[0, m)]. *)
val rank : endpoint -> int

(** Number of players. *)
val size : endpoint -> int

(** [send ep ~to_ payload] meters [payload] and appends it to player
    [to_]'s inbox from this player, then returns: the sender keeps
    running, and [to_] is queued to wake if it is blocked on this sender
    (or on any).  Under {!run_faulty} the channel treats the message
    first.  Sending to yourself or out of range raises
    [Invalid_argument]. *)
val send : endpoint -> to_:int -> Bitio.Bits.t -> unit

(** [recv ep ~from_] returns the oldest message from player [from_],
    suspending this player (the only point where players switch) while
    there is none.  Messages between a fixed pair arrive in FIFO order. *)
val recv : endpoint -> from_:int -> Bitio.Bits.t

(** [recv_any ep] blocks until a message from {e any} player arrives and
    returns [(sender, payload)].  Used by coordinators multiplexing many
    concurrent conversations (see {!Multiplex}). *)
val recv_any : endpoint -> int * Bitio.Bits.t

exception Deadlock of string
(** Raised by {!run} when every unfinished player is blocked on a message
    that can no longer arrive. *)

(** [run players] runs all player functions to completion and returns their
    results with the cost of the execution.  Players may finish in any
    order; any leftover undelivered messages are allowed (they are already
    metered).  A player's exception, or {!Deadlock}, ends the run; before
    it leaves [run], every player still blocked in a receive is unwound
    with {!Obsv.Trace.Abandoned}, so its scopes give back what they hold. *)
val run : (endpoint -> 'a) array -> 'a array * Cost.t

(** One player that can no longer make progress: the sender it waits on
    ([None] when blocked in {!recv_any}) and how many messages it had
    consumed before wedging — the index of the message it is missing. *)
type blocked = { rank : int; waiting_for : int option; consumed : int }

(** The coordinates of a message the channel swallowed: the [drop_index]-th
    message sent on the directed link [drop_from -> drop_to]. *)
type drop_site = { drop_from : int; drop_to : int; drop_index : int }

(** Why a faulty execution wedged: which players are stuck, how many
    messages the channel swallowed, the first message it dropped (the usual
    root cause of a desynchronised conversation), and a human-readable
    account that names the guilty links. *)
type diagnosis = {
  blocked : blocked list;
  dropped : int;
  first_drop : drop_site option;
  detail : string;
}

(** Result of an execution over an adversarial channel.  [Lost] replaces the
    {!Deadlock} exception: a dropped (or desynchronising) message shows up
    as a structured diagnosis, not a bare exception.  [Crashed] captures a
    player raising — typically a codec choking on a corrupted payload —
    together with how many messages the player had consumed when it raised
    (so the offending message is identifiable). *)
type 'r outcome =
  | Completed of 'r
  | Lost of diagnosis
  | Crashed of { rank : int; exn : string; after_messages : int }

(** [run_faulty ~plan players] runs the execution with the channel applying
    [plan] to every message at delivery time ({!Faults.apply}).  Cost meters
    each payload copy that actually crosses the wire (dropped messages cost
    nothing, duplicated ones are metered once per delivery); the tallies
    record the injected damage per directed link.  Replay-deterministic:
    the same players and plan produce the identical outcome, cost, trace
    and tallies.  Once the outcome and cost are fixed, every player still
    blocked in a receive is unwound as under {!run}; [Abandoned] is never
    a crash. *)
val run_faulty :
  plan:Faults.plan ->
  (endpoint -> 'a) array ->
  'a array outcome * Cost.t * Faults.tallies
