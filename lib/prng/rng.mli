(** Deterministic, seeded randomness.

    This module plays the role of the paper's {e common random string}: two
    parties seeded with the same root seed and asking for the same labels
    observe identical random streams without exchanging a single bit.  All
    protocol code takes an explicit [Rng.t]; nothing reads global state, so
    every run is reproducible from its seed. *)

type t

val of_seed : int64 -> t

(** Convenience: seed from a small integer (tests, CLIs). *)
val of_int : int -> t

(** [with_label t label] is a fresh generator derived from [t]'s {e root}
    seed and [label] only.  It does not advance [t], and the result is
    independent of how many values were drawn from [t] — this is what lets
    two parties agree on per-stage / per-node hash functions.  Labels are
    hashed with FNV-1a 64.  Allocates the returned generator and nothing
    else (72 bytes). *)
val with_label : t -> string -> t

(** Incremental label derivation for hot paths that would otherwise build
    the label by concatenation.  FNV-1a is a left-to-right byte fold, so

    {[ let d = Label.start t in
       Label.add d "eqb/g"; Label.add_int d 12;
       Label.finish d ]}

    is bit-identical to [with_label t "eqb/g12"] — same hash, same derived
    stream — without allocating the intermediate strings.

    A derivation cell [d] is reusable: [restart d] rewinds it to the empty
    label over the same root, and the next fragments and [finish] derive
    another generator.  Labels that share a prefix need not rehash it:
    feed the prefix, [mark d], and [rewind d] before each suffix.
    [finish] reseeds and returns the cell's own generator, so a generator
    obtained from [d] is valid only until the next [finish d]; draw what
    you need from it before deriving the next one.  A cell is plain
    mutable scratch: keep it local to one run. *)
module Label : sig
  type d

  val start : t -> d

  (** Back to the empty label, same root; the mark goes back to the empty
      label too. *)
  val restart : d -> unit

  (** Remember the fragments fed so far as the point {!rewind} returns
      to. *)
  val mark : d -> unit

  (** Back to the fragments at the last {!mark} (the empty label if there
      was none since {!start} or {!restart}). *)
  val rewind : d -> unit

  val add : d -> string -> unit
  val add_char : d -> char -> unit

  (** The decimal digits [string_of_int] would produce. *)
  val add_int : d -> int -> unit

  (** [index d i] is [rewind d; add_int d i]: the label at the mark
      followed by the digits of [i].  The cell keeps the hash of the mark
      followed by the digits of [i / 10], with that quotient, so a call
      whose [i / 10] matches the last one's folds a single byte; looping
      [i] upwards rehashes a prefix once every ten indices.  [start],
      [restart] and [mark] drop the cached prefix; [rewind], the other
      fragments and [finish] leave it.  Negative [i] and [i >= 10^15]
      take [add_int] (and a negative one allocates its string, as
      there); other calls allocate nothing. *)
  val index : d -> int -> unit

  (** The generator [with_label t label] would return for the fragments
      fed since [start] or the last [restart].  Owned by [d]: the next
      [finish d] reseeds it. *)
  val finish : d -> t

  (** [draws d n] is what [n] calls [int g (2^61 - 1)] draw, in order,
      from [g = finish d], without deriving [g]: the hash, the seed mix
      and the draws run in one pass with the generator state in locals.
      The values are in the first [n] cells of the returned array, which
      is [d]'s own buffer (it may be longer than [n]) and valid until the
      next [draws d].  Allocates only when [n] outgrows the buffer, and
      leaves [d]'s label and any generator [finish] handed out as they
      were. *)
  val draws : d -> int -> int array
end

(** [bits t ~width] is a uniform integer of [width] bits, [0 <= width <= 62]. *)
val bits : t -> width:int -> int

(** [int t bound] is uniform in [\[0, bound)]; [bound >= 1].  Unbiased via
    rejection sampling. *)
val int : t -> int -> int

val bool : t -> bool

(** Uniform in [\[0, 1)]. *)
val float : t -> float

(** {2 Integer Bernoulli decisions}

    [threshold ~p] is [ceil (p * 2^53)], in [\[0, 2^53\]]; [p] must lie
    in [\[0, 1\]].  Since a 53-bit draw [v] gives [float t = v / 2^53]
    exactly, [float t < p] holds iff [v < threshold ~p]: the decisions
    below are draw-for-draw those of [float t < p], on integers.  Note that
    [threshold ~p > 0] iff [p > 0]. *)
val threshold : p:float -> int

(** [below t threshold] is [float t < p] for [threshold = threshold ~p]:
    one draw. *)
val below : t -> int -> bool

(** [scan_below t ~threshold ~limit] runs up to [limit] of the decisions
    {!below} would make and stops at the first success: it returns that
    decision's 0-based index, having consumed exactly [index + 1] draws,
    or [limit] after consuming [limit] draws when none succeeds.  So a
    loop of [below] calls over [n] positions is the same as repeated scans
    that resume after each success — same successes, same final generator
    state — with no allocation and the generator state kept out of
    memory. *)
val scan_below : t -> threshold:int -> limit:int -> int

(** Fisher–Yates shuffle, in place. *)
val shuffle : t -> 'a array -> unit

(** Test references and instruments. *)
module For_testing : sig
  (** The next full 64-bit output (advances [t]): a probe of the
      generator's state. *)
  val int64 : t -> int64
end
