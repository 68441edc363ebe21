(** Growable bit-level writer used to assemble message payloads. *)

type t

(** [create ?capacity ()] is an empty writer.  [capacity] is a size hint in
    bits. *)
val create : ?capacity:int -> unit -> t

(** Number of bits written so far. *)
val length : t -> int

(** Append a single bit. *)
val write_bit : t -> bool -> unit

(** [write_bits t ~width v] appends the [width] low bits of [v], least
    significant first.  [width] must be in [0, 62] and [v] must fit, i.e.
    [0 <= v < 2^width].  Raises [Invalid_argument] otherwise. *)
val write_bits : t -> width:int -> int -> unit

(** [append t bits] appends a whole bit vector. *)
val append : t -> Bits.t -> unit

(** [append_range t bits ~pos ~len] appends bits [\[pos, pos + len)] of
    [bits], in order, 56 bits per load.  Raises [Invalid_argument] unless
    the range lies inside [bits].  [bits] must not be a {!view} of [t]
    itself. *)
val append_range : t -> Bits.t -> pos:int -> len:int -> unit

(** Freeze the contents written so far (copies; the result is safe to keep).
    The writer remains usable. *)
val contents : t -> Bits.t

(** [reset t] empties the writer without shrinking its backing storage, so
    it can be reused for the next payload with no fresh allocation.  This
    is the primitive behind {!Pool}. *)
val reset : t -> unit

(** [view t] is a zero-copy {!Bits.t} over the bits written so far.  The
    view aliases the writer's storage: it is invalidated by any subsequent
    [write_*], {!append} or {!reset} on [t].  Use it for transient reads
    (e.g. {!Bitreader.of_bitbuf}); use {!contents} for payloads that
    outlive the writer. *)
val view : t -> Bits.t
