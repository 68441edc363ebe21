(** Primality testing and prime search for the hash-function constructions
    (Fact 2.2 and the FKS universe reduction). *)

(** Deterministic Miller–Rabin, exact for all [0 <= n < 2^62]. *)
val is_prime : int -> bool

(** [next_prime n] is the smallest prime [>= n].  [n] must be at least 2 and
    small enough that the result stays below [2^62]. *)
val next_prime : int -> int
