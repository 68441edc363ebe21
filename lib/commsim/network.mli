(** The message-passing model of Section 4 ([BEO+13]): [m] players, arbitrary
    point-to-point messages, costs counted in bits and rounds.

    Players are ordinary OCaml functions run as cooperative coroutines
    (OCaml 5 effect handlers).  A player function receives only its
    {!endpoint} — it has no reference to the other players' inputs, so the
    information barrier of the communication model is enforced by scoping,
    not by convention.  The scheduler delivers messages, meters every
    payload, and tracks rounds as the longest chain of causally dependent
    messages (see {!Cost}). *)

type endpoint

(** This player's index in [\[0, m)]. *)
val rank : endpoint -> int

(** Number of players. *)
val size : endpoint -> int

(** [send ep ~to_ payload] enqueues [payload] for player [to_].
    Sending to yourself or out of range raises [Invalid_argument]. *)
val send : endpoint -> to_:int -> Bitio.Bits.t -> unit

(** [recv ep ~from_] blocks until a message from player [from_] arrives and
    returns it.  Messages between a fixed pair arrive in FIFO order. *)
val recv : endpoint -> from_:int -> Bitio.Bits.t

(** [recv_any ep] blocks until a message from {e any} player arrives and
    returns [(sender, payload)].  Used by coordinators multiplexing many
    concurrent conversations (see {!Multiplex}). *)
val recv_any : endpoint -> int * Bitio.Bits.t

exception Deadlock of string
(** Raised by {!run} when every unfinished player is blocked on a message
    that can no longer arrive. *)

(** One sent message, as recorded by {!run_traced}: sender, recipient,
    payload length, the message's causal depth (its round), and — when an
    {!Obsv.Trace} collector is installed — the id of the sender's innermost
    open span at send time. *)
type trace_entry = { from_ : int; to_ : int; bits : int; depth : int; span : int option }

(** [run players] runs all player functions to completion and returns their
    results with the cost of the execution.  Players may finish in any
    order; any leftover undelivered messages are allowed (they are already
    metered). *)
val run : (endpoint -> 'a) array -> 'a array * Cost.t

(** Like {!run}, also returning the full message trace in send order.
    Invariants (tested): one entry per message, entry bits sum to
    [cost.total_bits], and the maximum depth equals [cost.rounds]. *)
val run_traced : (endpoint -> 'a) array -> 'a array * Cost.t * trace_entry list

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
    and tallies. *)
val run_faulty :
  plan:Faults.plan ->
  (endpoint -> 'a) array ->
  'a array outcome * Cost.t * Faults.tallies
