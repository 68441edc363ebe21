(** Small helpers for assembling protocol messages. *)

(** Canonical bit-string encoding of a set (gap code); equal sets have equal
    encodings and vice versa — the representation equality tests run on. *)
val of_set : Iset.t -> Bitio.Bits.t

(** A single Elias-gamma-coded integer as a whole message. *)
val gamma_msg : int -> Bitio.Bits.t

(** Decode a message written by {!gamma_msg}. *)
val read_gamma_msg : Bitio.Bits.t -> int

(** A one-bit message. *)
val bit_msg : bool -> Bitio.Bits.t

(** Decode a message written by {!bit_msg}. *)
val read_bit_msg : Bitio.Bits.t -> bool

(** Bitmaps travel [bitmap_word] (56) flags to a word: flag [i] of a
    [width]-flag bitmap is bit [i mod bitmap_word] of word
    [i / bitmap_word], and the last word carries only the flags left.
    {!bitmap_msg} is one whole message in this layout; the word forms
    stream it inside a larger message, word by word from [first = 0] in
    steps of [bitmap_word]. *)
val bitmap_word : int

(** [bitmap_bit i] is flag [i]'s bit in its word. *)
val bitmap_bit : int -> int

(** [write_bitmap_word buf ~width ~first word] writes the word holding
    flags [first ..] of a [width]-flag bitmap: [word] has each of those
    flags at its {!bitmap_bit}. *)
val write_bitmap_word : Bitio.Bitbuf.t -> width:int -> first:int -> int -> unit

(** [read_bitmap_word reader ~width ~first] reads back the word
    {!write_bitmap_word} wrote.  Raises [Bitio.Bitreader.Underflow] if
    [reader] holds fewer bits. *)
val read_bitmap_word : Bitio.Bitreader.t -> width:int -> first:int -> int

(** A [width]-bit bitmap as a whole message, [width] mutually known. *)
val bitmap_msg : bool array -> Bitio.Bits.t

(** Decode a message written by {!bitmap_msg} with the same [width]. *)
val read_bitmap_msg : Bitio.Bits.t -> width:int -> bool array
