type t = { mutable bits : Bits.t; mutable position : int }

exception Underflow

let create bits = { bits; position = 0 }

let reset t bits =
  t.bits <- bits;
  t.position <- 0

let of_bitbuf buf = { bits = Bitbuf.view buf; position = 0 }

let remaining t = Bits.length t.bits - t.position

let read_bit t =
  if t.position >= Bits.length t.bits then raise Underflow;
  let bit = Bits.get t.bits t.position in
  t.position <- t.position + 1;
  bit

let read_bits t ~width =
  if width < 0 || width > 62 then invalid_arg "Bitreader.read_bits: width";
  if t.position + width > Bits.length t.bits then raise Underflow;
  let v = Bits.extract t.bits ~pos:t.position ~width in
  t.position <- t.position + width;
  v

let peek t = Bits.extract t.bits ~pos:t.position ~width:(Int.min 56 (remaining t))

let skip t n =
  if n < 0 || n > remaining t then raise Underflow;
  t.position <- t.position + n

(* Number of trailing one bits of [w >= 0]: [lnot w land (w + 1)] isolates
   the lowest zero bit, a power of two, which [Float.of_int] converts
   exactly at any size; its index is the double's biased exponent field
   minus 1023.  No branch on [w]'s bits and no boxing. *)
let[@inline] trailing_ones w =
  (Int64.to_int (Int64.bits_of_float (Float.of_int (lnot w land (w + 1)))) lsr 52) - 1023

(* Up to 56 bits per load; stops at the first zero, which stays unread. *)
let rec read_ones t acc =
  let avail = Int.min 56 (remaining t) in
  if avail = 0 then acc
  else begin
    (* the extracted word is below 2^avail, so [ones <= avail] *)
    let ones = trailing_ones (Bits.extract t.bits ~pos:t.position ~width:avail) in
    t.position <- t.position + ones;
    if ones < avail then acc + ones else read_ones t (acc + ones)
  end

let read_ones t = read_ones t 0

let read_blob t ~bits =
  if bits < 0 then invalid_arg "Bitreader.read_blob: bits";
  if t.position + bits > Bits.length t.bits then raise Underflow;
  let buf = Bytes.make ((bits + 7) / 8) '\000' in
  (* 56-bit chunks land on whole destination bytes (7 per chunk). *)
  let pos = ref 0 in
  while !pos < bits do
    let take = Int.min 56 (bits - !pos) in
    let v = ref (read_bits t ~width:take) in
    for j = !pos lsr 3 to ((!pos + take + 7) lsr 3) - 1 do
      Bytes.unsafe_set buf j (Char.unsafe_chr (!v land 0xFF));
      v := !v lsr 8
    done;
    pos := !pos + take
  done;
  Bits.unsafe_of_bytes buf ~length:bits

(* The whole run is checked once, so each step is one unchecked load from
   either side; a mismatch still consumes all [bits]. *)
let read_matches t ~bits b ~pos ~len =
  if bits < 0 then invalid_arg "Bitreader.read_matches: bits";
  if pos < 0 || len < 0 || pos + len > Bits.length b then
    invalid_arg "Bitreader.read_matches: out of bounds";
  if t.position + bits > Bits.length t.bits then raise Underflow;
  let start = t.position in
  t.position <- start + bits;
  bits = len
  &&
  let i = ref 0 and same = ref true in
  while !same && !i < len do
    let take = Int.min 56 (len - !i) in
    same :=
      Bits.unsafe_extract t.bits ~pos:(start + !i) ~width:take
      = Bits.unsafe_extract b ~pos:(pos + !i) ~width:take;
    i := !i + take
  done;
  !same
