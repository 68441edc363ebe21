(** Enumerative (combinatorial number system) coding of k-subsets.

    A set [{c_1 < ... < c_k} ⊆ \[0, n)] is encoded as its rank
    [Σ_i C(c_i, i)] in [ceil (log2 (C(n,k)))] bits — {e exactly} the
    information-theoretic bound for describing a k-subset, i.e. the
    tightest possible form of the paper's deterministic
    [D^(1) = O(k log (n/k))] upper bound.  The cardinality travels first
    as an Elias gamma code.

    Slower than {!Set_codec.write_gaps} (bignum arithmetic, [O(n + k²)]
    limb passes) but within a few bits of optimal instead of a constant
    factor; used by the exact-baseline protocol and the A2/F1 benches.
    Universes must stay below [2^26] (binomial factors must fit a bignum
    limb); larger ones raise [Invalid_argument]. *)

(** Encode a sorted set as gamma cardinality plus its rank in exactly
    [ceil (log2 (C(universe, k)))] bits. *)
val write : Bitbuf.t -> universe:int -> int array -> unit

(** Unrank a set written by {!write} with the same [universe]. *)
val read : Bitreader.t -> universe:int -> int array
