(** Integer iterated logarithms: the yardstick of the paper's
    communication/round trade-off ([log^(0) k = k], [log^(i) k =
    log (log^(i-1) k)], and [log* k]). *)

(** [log2_ceil x] is [ceil (log2 x)] for [x >= 1]; [log2_ceil 1 = 0]. *)
val log2_ceil : int -> int

(** [ilog i k] is the integer [log^(i) k]: apply [log2_ceil] [i] times to
    [k >= 1], clamping at 1 so further iterations stay defined.
    [ilog 0 k = k]. *)
val ilog : int -> int -> int

(** [log_star k] is the least [i >= 0] with [ilog i k <= 1]. *)
val log_star : int -> int

(** Test references and instruments. *)
module For_testing : sig
  (** [tower i] is the power tower 2^(2^(...)) of height [i]
      ([tower 0 = 1]); inverse of {!log_star} for tests. *)
  val tower : int -> int
end
