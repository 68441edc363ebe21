(** Bottom-k (min-wise) sketches — the {e approximate} alternative the
    paper positions itself against (Pagh–Stöckel–Woodruff, "Is min-wise
    hashing optimal for summarizing set intersection?", PODS 2014).

    A bottom-k sketch keeps the [k] smallest images of a set under a shared
    random hash.  Exchanging sketches (one round, [O(k log n)] bits, or
    [O(k log k)] with value truncation) yields an {e estimate} of the
    Jaccard similarity and intersection size, with standard-error
    [~sqrt(J(1-J)/k)] — whereas the paper's protocols return the exact
    intersection for comparable communication.  The E-T12 bench puts the
    two on the same axis: bits vs (error, exactness).

    Both parties must build sketches from generators with the same root. *)

type t

(** [create rng ~size set] keeps the [size] smallest 60-bit images. *)
val create : Prng.Rng.t -> size:int -> Iset.t -> t

(** Number of retained values ([<= size] when the set is small). *)
val cardinal : t -> int

(** Wire encoding / decoding; [bits] of the encoding are charged by the
    protocol below. *)
val encode : t -> Bitio.Bits.t

(** Read one {!encode}d sketch at the reader's position. *)
val decode : Bitio.Bitreader.t -> t

(** [estimate ~size_a ~size_b a b] estimates Jaccard similarity and
    intersection size from two sketches built with the same generator and
    [size]; the true set sizes travel alongside the sketches (they are
    cheap and sharpen the estimate). *)
val estimate : size_a:int -> size_b:int -> t -> t -> float * float

(** One-round sketch-exchange protocol: both parties learn the estimates.
    Returns ((jaccard_estimate, intersection_estimate), cost). *)
val exchange :
  Prng.Rng.t ->
  sketch_size:int ->
  Iset.t ->
  Iset.t ->
  (float * float) * Commsim.Cost.t
