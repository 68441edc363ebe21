(** Domain-local caching of derived codec tables (binomial coefficients
    for the combinatorial number system).

    Everything here is a pure function of its arguments; the cache only
    changes how often the underlying bignum arithmetic runs, never a
    result or a transcript.  Tables live in [Domain.DLS], one per domain,
    so lookups need no synchronisation (this module carries the lint R4
    allowlist entry for [Domain.DLS] outside lib/engine and lib/obsv). *)

(** [binomial n k] = [Bignat.binomial n k], cached per domain for
    [0 <= k <= n < 2^26].  Out-of-range arguments defer to
    [Bignat.binomial] uncached, so raises and zero cases are identical. *)
val binomial : int -> int -> Bignat.t

(** [binomial_bits ~n ~k] is [Bignat.bit_length (binomial n k)] — the
    payload width of the enumerative codec for a [k]-subset of an [n]
    universe. *)
val binomial_bits : n:int -> k:int -> int

(** Test instruments. *)
module For_testing : sig
  (** [bypassed f] runs [f] with the cache disabled on the current domain
      (every coefficient recomputed), to compare cached and uncached
      executions. *)
  val bypassed : (unit -> 'a) -> 'a
end
