(** Wire encodings for sets of elements drawn from a universe [\[0, n)].

    Sets travel as sorted arrays of distinct non-negative integers, encoded
    by {!write_gaps}: cardinality followed by delta-coded gaps — within a
    constant of the information-theoretic [log2 (binom n k)] bound, which is
    the [O(k log (n/k))] cost quoted for the trivial deterministic
    protocol. *)

(** [universe_width n] is the number of bits needed for one element of
    [\[0, n)], i.e. [ceil (log2 n)] (and 1 when [n <= 2]). *)
val universe_width : int -> int

(** [validate ~universe s] checks that [s] is strictly increasing with
    elements in [\[0, universe)].  Raises [Invalid_argument] otherwise. *)
val validate : universe:int -> int array -> unit

(** Gap encoding: gamma cardinality, then delta-coded successive gaps —
    the [O(k log (n/k))]-bit set description (costed by {!gaps_cost}). *)
val write_gaps : Bitbuf.t -> int array -> unit

(** Decode a set written by {!write_gaps}. *)
val read_gaps : Bitreader.t -> int array

(** Cost in bits of {!write_gaps} without writing. *)
val gaps_cost : int array -> int

(** [log2_binomial n k] is [log2 (binom n k)], the information-theoretic
    lower bound in bits for describing a [k]-subset of an [n]-universe. *)
val log2_binomial : int -> int -> float
