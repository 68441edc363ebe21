(** Self-delimiting integer codes.

    These are the concrete encodings behind every "O(log x) bits" step in the
    protocols, so that measured communication is an honest bit count.  All
    encoders take non-negative arguments; the Elias codes internally shift by
    one to admit zero. *)

(** [bit_width v] is the number of bits in the binary representation of
    [v >= 1], i.e. [floor (log2 v) + 1]. *)
val bit_width : int -> int

(** Unary: [n] is written as [n] one bits followed by a zero ([n + 1] bits). *)
val write_unary : Bitbuf.t -> int -> unit

(** Decode one unary value, consuming through its terminating zero bit. *)
val read_unary : Bitreader.t -> int

(** Elias gamma code of [n >= 0] ([2 * bit_width (n+1) - 1] bits). *)
val write_gamma : Bitbuf.t -> int -> unit

(** Decode one gamma value written by {!write_gamma}.  Raises
    {!Bitreader.Underflow} when the payload ends inside the codeword, and
    on a unary prefix longer than 61, which {!write_gamma} never writes
    (its value would pass [max_int]). *)
val read_gamma : Bitreader.t -> int

(** Elias delta code of [n >= 0]; asymptotically
    [log n + O(log log n)] bits. *)
val write_delta : Bitbuf.t -> int -> unit

(** Decode one delta value written by {!write_delta}.  Raises
    {!Bitreader.Underflow} on a truncated codeword and on a width no
    {!write_delta} codeword has (its gamma part over 61). *)
val read_delta : Bitreader.t -> int

(** LEB128-style varint: 7 value bits + 1 continuation bit per group. *)
val write_varint : Bitbuf.t -> int -> unit

(** Decode one varint written by {!write_varint}. *)
val read_varint : Bitreader.t -> int

(** [gamma_cost n] is the exact bit count {!write_gamma} spends on [n],
    without writing it (memoized for small [n]; costs feed round budgets
    on protocol hot paths). *)
val gamma_cost : int -> int

(** Exact bit count of {!write_delta} on the argument (memoized for small
    values, like {!gamma_cost}). *)
val delta_cost : int -> int
