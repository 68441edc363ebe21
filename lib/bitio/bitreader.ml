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
   the lowest zero bit, whose index a binary search finds. *)
let trailing_ones w =
  let z = lnot w land (w + 1) in
  let n = ref 0 and z = ref z in
  if !z lsr 32 <> 0 then (n := 32; z := !z lsr 32);
  if !z lsr 16 <> 0 then (n := !n + 16; z := !z lsr 16);
  if !z lsr 8 <> 0 then (n := !n + 8; z := !z lsr 8);
  if !z lsr 4 <> 0 then (n := !n + 4; z := !z lsr 4);
  if !z lsr 2 <> 0 then (n := !n + 2; z := !z lsr 2);
  if !z lsr 1 <> 0 then n := !n + 1;
  !n

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
