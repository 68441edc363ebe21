(** Sorted integer sets, represented as strictly increasing [int array]s.

    This is the on-the-wire and in-protocol representation of every set in
    the library: canonical (so equality of sets is equality of arrays),
    cheap to merge, and cheap to encode with {!Bitio.Set_codec}. *)

type t = int array

val empty : t

(** [of_list l] sorts and deduplicates. *)
val of_list : int list -> t

(** [of_array a] sorts and deduplicates a copy. *)
val of_array : int array -> t

val is_valid : t -> bool
val cardinal : t -> int
val mem : t -> int -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

(** [filter p s] keeps order. *)
val filter : (int -> bool) -> t -> t

(** Intersection of a non-empty list of sets. *)
val inter_many : t list -> t

(** Union of any list of sets. *)
val union_many : t list -> t

val pp : Format.formatter -> t -> unit
