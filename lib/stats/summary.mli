(** Summary statistics over repeated protocol trials. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val of_floats : float list -> t
val of_ints : int list -> t
