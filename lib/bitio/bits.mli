(** Immutable bit vectors: the payload type of every simulated message.

    A value of type {!t} is a sequence of [length] bits backed by a byte
    buffer.  Bit [i] lives in byte [i / 8] at position [i mod 8], least
    significant bit first.  All communication costs in the simulator are
    measured as {!length} of the exchanged payloads. *)

type t

(** The zero-length bit vector. *)
val empty : t

(** [length b] is the number of bits in [b]. *)
val length : t -> int

(** [get b i] is bit [i] of [b].  Raises [Invalid_argument] when [i] is out
    of bounds. *)
val get : t -> int -> bool

(** [extract b ~pos ~width] is the integer formed by bits
    [pos .. pos+width-1] (least significant first), for [0 <= width <= 62]
    and [pos + width <= length b].  Constant time: one little-endian 64-bit
    load for [width <= 56], two above; near the end of the backing bytes
    the load falls back to reading the bytes that exist. *)
val extract : t -> pos:int -> width:int -> int

(** [unsafe_extract b ~pos ~width] is [extract b ~pos ~width] without
    its checks, and inlinable: valid only after the caller has checked
    [0 <= width <= 56], [pos >= 0] and [pos + width <= length b] (an
    unchecked call outside that range reads unspecified bits).  For loops
    that have already checked a whole range once. *)
val unsafe_extract : t -> pos:int -> width:int -> int

(** [of_bools l] builds a bit vector from a list of bits. *)
val of_bools : bool list -> t

(** [of_string s] wraps a whole string as a bit vector of [8 * String.length s]
    bits. *)
val of_string : string -> t

(** [unsafe_of_bytes bytes ~length] wraps [bytes] without copying.  The caller
    must not mutate [bytes] afterwards and must guarantee that all bits at
    index [>= length] in the final byte are zero. *)
val unsafe_of_bytes : bytes -> length:int -> t

(** Underlying storage; never mutate the result. *)
val bytes : t -> bytes

(** Bitwise equality: same length, same bits. *)
val equal : t -> t -> bool

(** [key b] is a canonical string usable as a hashtable key: two bit vectors
    have the same key iff they are {!equal}. *)
val key : t -> string
