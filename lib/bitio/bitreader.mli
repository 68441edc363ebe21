(** Sequential reader over a {!Bits.t} payload. *)

type t

exception Underflow
(** Raised when reading past the end of the payload. *)

(** [create bits] reads [bits] from the beginning. *)
val create : Bits.t -> t

(** [reset t bits] repoints [t] at [bits], rewound to the beginning —
    [create] without the allocation, for a party that reads every
    message of a run through one reader. *)
val reset : t -> Bits.t -> unit

(** [of_bitbuf buf] reads the bits written to [buf] so far without copying
    them (a reader over {!Bitbuf.view}).  The reader is invalidated by any
    subsequent write to or reset of [buf]. *)
val of_bitbuf : Bitbuf.t -> t

(** Bits left to read. *)
val remaining : t -> int

(** Consume and return the next bit. *)
val read_bit : t -> bool

(** [read_bits t ~width] reads [width] bits (least significant first) written
    by {!Bitbuf.write_bits} with the same width.  [width] must be in
    [0, 62]. *)
val read_bits : t -> width:int -> int

(** [peek t] is the next [min 56 (remaining t)] bits as {!read_bits}
    would return them (first bit lowest), zero above, without consuming
    them: one word load.  Never raises. *)
val peek : t -> int

(** [skip t n] consumes [n] bits; raises [Underflow] past the end. *)
val skip : t -> int -> unit

(** [read_ones t] consumes the run of one bits at the current position and
    returns its length, a word at a time.  It stops before the first zero
    (left unread) or at the end of the payload; it never raises. *)
val read_ones : t -> int

(** [read_blob t ~bits] reads the next [bits] bits as an opaque bit vector
    (e.g. a hash tag of arbitrary width). *)
val read_blob : t -> bits:int -> Bits.t

(** [read_matches t ~bits b ~pos ~len] consumes the next [bits] bits and
    says whether they equal bits [\[pos, pos + len)] of [b] (never when
    [bits <> len]): [Bits.equal (read_blob t ~bits) r] for [r] that
    range, compared 56 bits per load without building either side.
    Raises [Underflow], consuming nothing, when fewer than [bits] bits
    remain, and [Invalid_argument] unless the range lies inside [b]. *)
val read_matches : t -> bits:int -> Bits.t -> pos:int -> len:int -> bool
