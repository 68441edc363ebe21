(** Sequential reader over a {!Bits.t} payload. *)

type t

exception Underflow
(** Raised when reading past the end of the payload. *)

(** [create bits] reads [bits] from the beginning. *)
val create : Bits.t -> t

(** [reset t bits] repoints [t] at [bits], rewound to the beginning —
    [create] without the allocation.  {!Pool.with_reader} uses this to
    recycle reader cells. *)
val reset : t -> Bits.t -> unit

(** [of_bitbuf buf] reads the bits written to [buf] so far without copying
    them (a reader over {!Bitbuf.view}).  The reader is invalidated by any
    subsequent write to or reset of [buf]. *)
val of_bitbuf : Bitbuf.t -> t

(** Bits consumed so far. *)
val position : t -> int

(** Bits left to read. *)
val remaining : t -> int

(** Consume and return the next bit. *)
val read_bit : t -> bool

(** [read_bits t ~width] reads [width] bits (least significant first) written
    by {!Bitbuf.write_bits} with the same width.  [width] must be in
    [0, 62]. *)
val read_bits : t -> width:int -> int

(** [read_ones t] consumes the run of one bits at the current position and
    returns its length, a word at a time.  It stops before the first zero
    (left unread) or at the end of the payload; it never raises. *)
val read_ones : t -> int

(** [read_blob t ~bits] reads the next [bits] bits as an opaque bit vector
    (e.g. a hash tag of arbitrary width). *)
val read_blob : t -> bits:int -> Bits.t
