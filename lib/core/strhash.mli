(** Shared-randomness hash tags of arbitrary width.

    A [fn] is a random function producing [bits]-bit tags, built from
    independent affine "lanes" over the Mersenne prime [p = 2^61 - 1]
    (strings are first collapsed by a polynomial fingerprint over [p]).
    Guarantees, for inputs [x <> y] and [p = 2^61 - 1]:

    - tags of equal inputs are always equal (one-sided);
    - tags collide with probability at most
      [(⌈len/24⌉ + 1)/p + ∏ (2^-w + 1/p)], the product over the lanes of
      widths [w] (48 bits each, the last one narrower), where [len] is the
      longer input's length in bits: the first term bounds a fingerprint
      collision (a nonzero polynomial of degree [⌈len/24⌉] has that many
      roots), the second a collision of distinct fingerprints in every
      lane.  For integer inputs the first term drops out.  That is within
      a small constant factor of the ideal [2^-bits], which is all
      Fact 3.5 and Lemma 3.3 need.

    Both parties construct the same [fn] by passing {!Prng.Rng.t} values in
    identical states (e.g. [Rng.with_label shared "stage3/node17"]); [create]
    consumes from the generator. *)

type fn

(** [create rng ~bits] draws a tag function.  [bits >= 1]; any width is
    supported (wide tags use several lanes). *)
val create : Prng.Rng.t -> bits:int -> fn

(** Tag of a bit string. *)
val apply : fn -> Bitio.Bits.t -> Bitio.Bits.t

(** Tag of an integer in [\[0, 2^60)]. *)
val apply_int : fn -> int -> Bitio.Bits.t

(** [write_int fn buf x] appends [apply_int fn x] to [buf] without
    building the tag. *)
val write_int : fn -> Bitio.Bitbuf.t -> int -> unit

(** [int_tag fn x] is [apply_int fn x] as the integer
    [Bitio.Bitreader.read_bits ~width:(bits fn)] would read back from it:
    tag bit [i] is bit [i] of the result.  Requires [bits fn <= 62] and
    [x] in [\[0, 2^60)].  Lets tag tables key on native ints. *)
val int_tag : fn -> int -> int

(** [prefixed_int_tag fn ~prefix ~prefix_bits payload ~pos ~len] is
    {!int_tag}'s integer for [apply fn] on the bit string made of the
    [prefix_bits] bits of [prefix] (least significant first) followed by
    the bits [\[pos, pos + len)] of [payload]: that string tags exactly
    like a payload holding just its bits, but neither the prefix nor the
    range is copied, and the tag comes back as a native int without
    being built.  Requires [bits fn <= 62]; raises [Invalid_argument]
    unless [0 <= prefix_bits <= 24], [0 <= prefix < 2^prefix_bits] and
    the range lies inside [payload]. *)
val prefixed_int_tag :
  fn -> prefix:int -> prefix_bits:int -> Bitio.Bits.t -> pos:int -> len:int -> int

(** {2 Flat int-tag functions}

    A run that draws many narrow tag functions one after another keeps
    the current one's lane coefficients in one int array of
    [int_fn_slots] cells instead of building a [fn] per function. *)

(** Cells one stored function takes. *)
val int_fn_slots : int

(** [draw_int_fn d ~bits lanes] draws, as the fused forms below do, the
    function [create (Prng.Rng.Label.finish d) ~bits] would draw, from the
    cell [d] whose label is complete, and stores its lane coefficients in
    [lanes.(0) .. lanes.(int_fn_slots - 1)].  No generator is derived and
    the cell's label is left as it was.  Requires [1 <= bits <= 62]. *)
val draw_int_fn : Prng.Rng.Label.d -> bits:int -> int array -> unit

(** [stored_int_tag lanes ~bits x] is [int_tag (create rng ~bits) x] for
    the function {!draw_int_fn} stored in [lanes] with the same [bits]. *)
val stored_int_tag : int array -> bits:int -> int -> int

(** {2 Fused draw-and-tag}

    These take a label-derivation cell whose label is complete, in place
    of the generator [Prng.Rng.Label.finish d] would return, and draw
    from it with {!Prng.Rng.Label.draws}: the same values [create] draws
    from that generator, in the same order (point, then each lane's
    coefficients), with no generator and no [fn] built.  The cell's label
    is left as it was.

    [draw_write_range d ~bits buf payload ~pos ~len] appends
    [apply (create (Prng.Rng.Label.finish d) ~bits) r] to [buf], for [r]
    the bits [\[pos, pos + len)] of [payload], without building the tag
    or extracting [r]: a range tags exactly like a payload holding just
    its bits, and a whole payload passes [~pos:0 ~len:(length payload)].
    The path for tags used once.  Raises [Invalid_argument] unless the
    range lies inside [payload]. *)
val draw_write_range :
  Prng.Rng.Label.d -> bits:int -> Bitio.Bitbuf.t -> Bitio.Bits.t -> pos:int -> len:int -> unit

(** [draw_matches_range d ~bits reader payload ~pos ~len] consumes
    exactly [bits] bits from [reader] (a peer's tag, as
    {!draw_write_range} wrote it from a cell with the same root and
    label) and says whether they equal the tag {!draw_write_range} would
    write for the same range.  The reader advances fully even on a
    mismatch, so framing is position-identical to a read-then-compare
    round trip. *)
val draw_matches_range :
  Prng.Rng.Label.d -> bits:int -> Bitio.Bitreader.t -> Bitio.Bits.t -> pos:int -> len:int -> bool

(** Test instruments. *)
module For_testing : sig
  (** [range_int_tag fn payload ~pos ~len] is {!prefixed_int_tag} with no
      prefix: [apply fn] on the bits [\[pos, pos + len)] of [payload], as
      the integer {!int_tag} would give. *)
  val range_int_tag : fn -> Bitio.Bits.t -> pos:int -> len:int -> int

  (** [canon_masked x] is [x mod (2^61 - 1)] for [0 <= x < 2 (2^61 - 1)],
      computed with a sign mask instead of a branch: the reduction every
      lane tag ends with. *)
  val canon_masked : int -> int

  (** [point_of v] is [2 + v mod (2^61 - 5)] and [a_of v] is
      [1 + v mod (2^61 - 2)], for a draw [0 <= v < 2^61 - 1]: the
      evaluation point and a lane's multiplier, computed with one masked
      subtraction each. *)
  val point_of : int -> int

  val a_of : int -> int
end
