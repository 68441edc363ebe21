(** Deterministic, seeded adversarial channels.

    A {!plan} describes what the channel does to every message of an
    execution: per payload bit it may flip the bit, per message it may
    truncate the payload, deliver it twice, or drop it entirely.  The
    treatment of the [index]-th message on a directed link is a pure
    function of the plan seed and the coordinates [(from_, to_, index)] —
    never of scheduling order — so a faulty execution is replayed exactly
    by re-running with the same plan ({!Network.run_faulty}).

    Injected damage is tallied per directed link ({!tallies}) as a sidecar
    to {!Cost}: cost keeps metering what actually crossed the wire (each
    delivered copy once), the tally records what the adversary did to it. *)

(** Per-link fault rates; all fields are probabilities in [\[0, 1\]]. *)
type link = {
  flip : float;  (** each payload bit flips independently *)
  trunc : float;  (** the message loses a uniform suffix (per message) *)
  dup : float;  (** the message is delivered twice (per message) *)
  drop : float;  (** the message is never delivered (per message) *)
}

(** The faultless link: all rates zero. *)
val clean_link : link

(** [flipping p] is {!clean_link} with bit-flip rate [p]. *)
val flipping : float -> link

(** [dropping p] is {!clean_link} with drop rate [p]. *)
val dropping : float -> link

(** A seeded description of the channel's behaviour on every message of an
    execution (see the module preamble). *)
type plan

(** The identity channel; {!apply} delivers every payload untouched. *)
val clean : plan

(** [uniform ~seed link] applies the same [link] faults to every directed
    link.  Raises [Invalid_argument] if a rate is outside [\[0, 1\]]. *)
val uniform : seed:int -> link -> plan

(** Does this plan inject no faults on any link? *)
val is_clean : plan -> bool

(** The seed the plan's noise derives from. *)
val seed : plan -> int

(** [reseed plan ~salt] is [plan] with a seed derived deterministically from
    [(seed plan, salt)]: the same fault rates, fresh noise.  Retry loops use
    this so each re-execution faces independent channel randomness instead
    of a bit-for-bit replay of the damage that just failed them (message
    indices restart at zero on every {!Network.run_faulty}).  The identity
    on {!clean}. *)
val reseed : plan -> salt:int -> plan

(** Fault bookkeeping for one directed link (or an aggregate of links).
    Private: only {!apply} writes a tally, in place, into the tallies of
    its own {!channel}; everything else reads. *)
type tally = private {
  mutable deliveries : int;  (** payload copies handed to the recipient *)
  mutable flipped_messages : int;
  mutable flipped_bits : int;
  mutable truncated_messages : int;
  mutable truncated_bits : int;  (** bits cut off by truncation *)
  mutable duplicated_messages : int;
  mutable dropped_messages : int;
  mutable dropped_bits : int;  (** bits of payload that never arrived *)
}

(** A fresh empty tally (unit of {!add_tally}). *)
val zero_tally : unit -> tally

(** Field-wise sum of two tallies. *)
val add_tally : tally -> tally -> tally

(** Per-directed-link tallies of one execution: [links.(from_).(to_)]. *)
type tallies = { links : tally array array }

(** All-zero tallies for a [players]-party execution. *)
val create_tallies : players:int -> tallies

(** Aggregate over all links. *)
val total : tallies -> tally

(** [merge a b] adds the tallies link-wise (same player count). *)
val merge : tallies -> tallies -> tallies

(** One execution's channel: a plan together with the tallies the
    execution's damage is recorded in, each link's decision thresholds
    and each link's label cell, which holds the hash of
    ["faults/<from_>-><to_>/"] (both computed once, when the channel is
    built) and derives each message's generator.  Plain mutable state:
    one per execution. *)
type channel

(** [channel plan ~players] starts a [players]-party execution over
    [plan], with all-zero tallies. *)
val channel : plan -> players:int -> channel

(** The tallies {!apply} has recorded so far. *)
val tallies : channel -> tallies

(** [apply c ~from_ ~to_ ~index payload] is the channel's treatment of the
    [index]-th message sent on the directed link [from_ -> to_]: how many
    copies of {!delivered} to hand to the recipient, in order — [0] when
    the message is dropped, [2] when it is duplicated, else [1].  The
    damage it injects is added to [tallies c].  Deterministic in
    [(seed plan, from_, to_, index)] alone: the message's generator is
    derived from the plan seed and the label ["faults/<from_>-><to_>/<index>"],
    and draws, in order, the drop decision, the truncation decision and
    point, one flip decision per bit of the (possibly truncated) payload,
    and the duplication decision — each decision only when its rate is
    positive.  A message that is neither truncated nor flipped allocates
    nothing. *)
val apply : channel -> from_:int -> to_:int -> index:int -> Bitio.Bits.t -> int

(** The payload the last {!apply} on the channel delivers: its [payload]
    itself unless truncated or flipped.  Unspecified after a drop. *)
val delivered : channel -> Bitio.Bits.t

(** Test instruments. *)
module For_testing : sig
  (** [make ~seed pick] chooses the fault rates per directed link; [pick]
      must be pure.  Rates are validated when a {!channel} is built over
      the plan, for every link of the execution, so an invalid rate
      raises out of {!Network.run_faulty} before any player runs. *)
  val make : seed:int -> (from_:int -> to_:int -> link) -> plan
end
