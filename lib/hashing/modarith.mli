(** Overflow-safe modular arithmetic on 64-bit values, treated as unsigned.

    Needed because Carter–Wegman hashing over a prime field multiplies two
    values close to the prime, which overflows native 64-bit products for
    universes beyond 2^31. *)

(** [addmod a b m] is [(a + b) mod m] for unsigned [a, b < m]. *)
val addmod : int64 -> int64 -> int64 -> int64

(** [mulmod a b m] is [(a * b) mod m] for unsigned [a, b < m], by
    shift-and-add.  Callers whose operands fit a native product use one. *)
val mulmod : int64 -> int64 -> int64 -> int64

(** Test references. *)
module For_testing : sig
  (** [powmod b e m] is [b^e mod m] for unsigned [b < m], [e >= 0]. *)
  val powmod : int64 -> int64 -> int64 -> int64
end
