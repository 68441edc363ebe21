(** Minimal arbitrary-precision naturals, just enough for the enumerative
    set codec ({!Enum_codec}): binomial coefficients via the multiplicative
    formula and rank arithmetic in the combinatorial number system.

    Values are immutable.  Little-endian limbs in base [2^26] (products and
    carries stay inside OCaml's 63-bit native ints). *)

type t

(** The natural 0. *)
val zero : t

(** The natural 1. *)
val one : t

(** [is_zero t] is [compare t zero = 0]. *)
val is_zero : t -> bool

(** Total order on values ([Stdlib.compare] semantics). *)
val compare : t -> t -> int

(** Exact sum. *)
val add : t -> t -> t

(** [sub a b] requires [a >= b]. *)
val sub : t -> t -> t

(** [mul_small t x] for [0 <= x < 2^26]. *)
val mul_small : t -> int -> t

(** [div_small t x] for [1 <= x < 2^26]; returns quotient and remainder. *)
val div_small : t -> int -> t * int

(** Number of bits ([0] for zero). *)
val bit_length : t -> int

(** [bit t i] is bit [i]. *)
val bit : t -> int -> bool

(** [of_bits f ~width] builds the value with bit [i] = [f i]. *)
val of_bits : (int -> bool) -> width:int -> t

(** [binomial n k] = C(n, k), exactly; zero when [k < 0] or [k > n].
    Requires [0 <= n < 2^26]. *)
val binomial : int -> int -> t
