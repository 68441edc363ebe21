(* [x = v land lnot (v lsr 1)] keeps v's top bit 2^t and clears bit t-1,
   so 2^t <= x < 1.5 2^t: [Float.of_int x], even rounded to 53 bits,
   never reaches 2^(t+1), and its biased exponent field (bits 52-62 of
   the double) is t + 1023 at every width up to 62.  The width is that
   field minus 1022: no branch on [v]'s bits and no boxing. *)
let bit_width v =
  if v < 1 then invalid_arg "Codes.bit_width";
  (Int64.to_int (Int64.bits_of_float (Float.of_int (v land lnot (v lsr 1)))) lsr 52) - 1022

let write_unary buf n =
  if n < 0 then invalid_arg "Codes.write_unary";
  (* n ones then a zero is the (n+1)-bit value 2^n - 1, LSB first — one
     bulk write instead of n+1 single-bit writes whenever it fits. *)
  if n <= 61 then Bitbuf.write_bits buf ~width:(n + 1) ((1 lsl n) - 1)
  else begin
    for _ = 1 to n do
      Bitbuf.write_bit buf true
    done;
    Bitbuf.write_bit buf false
  end

let read_unary r =
  let n = Bitreader.read_ones r in
  (* the terminating zero; raises [Underflow] when the ones ran to the end *)
  ignore (Bitreader.read_bit r : bool);
  n

(* Gamma of n >= 0 encodes m = n + 1: unary (width - 1), then the low
   (width - 1) bits of m. *)
let write_gamma buf n =
  if n < 0 then invalid_arg "Codes.write_gamma";
  let m = n + 1 in
  let w = bit_width m in
  if w <= 31 then
    (* Whole codeword in one write: bits 0..w-2 are the unary prefix
       (ones), bit w-1 the terminator (zero), bits w..2w-2 the low bits of
       m.  2w-1 <= 61, inside write_bits' width bound. *)
    Bitbuf.write_bits buf ~width:((2 * w) - 1)
      (((1 lsl (w - 1)) - 1) lor ((m land ((1 lsl (w - 1)) - 1)) lsl w))
  else begin
    write_unary buf (w - 1);
    Bitbuf.write_bits buf ~width:(w - 1) (m land ((1 lsl (w - 1)) - 1))
  end

(* [write_gamma] never writes a prefix over 61: 2^62 - 1 is past [max_int]
   and a 62-bit tail past [read_bits]. *)
let read_gamma_long r =
  let z = read_unary r in
  if z > 61 then raise Bitreader.Underflow;
  let low = Bitreader.read_bits r ~width:z in
  (low lor (1 lsl z)) - 1

(* A codeword of at most 55 bits decodes from one load: its prefix [z] is
   the count of trailing ones (the index of the lowest zero), and its low
   bits sit right above the terminator.  The window reads zeros past the
   end of the payload, so a codeword that took any of them would be
   longer than what is left, and [skip] raises [Underflow] for it.  A
   prefix of 28 or more takes the bit-by-bit path. *)
let read_gamma r =
  let w = Bitreader.peek r in
  let z = bit_width (lnot w land (w + 1)) - 1 in
  if z < 28 then begin
    Bitreader.skip r ((2 * z) + 1);
    (((w lsr (z + 1)) land ((1 lsl z) - 1)) lor (1 lsl z)) - 1
  end
  else read_gamma_long r

(* Delta of n >= 0 encodes m = n + 1: gamma of (width - 1), then the low
   (width - 1) bits of m. *)
let write_delta buf n =
  if n < 0 then invalid_arg "Codes.write_delta";
  let m = n + 1 in
  let w = bit_width m in
  let low = m land ((1 lsl (w - 1)) - 1) in
  (* gamma of (w - 1) is 2g - 1 bits, g = bit_width w: unary (g - 1),
     then the low g - 1 bits of w.  With the low bits of m it makes one
     write whenever the whole codeword fits one. *)
  let g = bit_width w in
  let gamma_width = (2 * g) - 1 in
  if gamma_width + w - 1 <= 62 then
    Bitbuf.write_bits buf ~width:(gamma_width + w - 1)
      (((1 lsl (g - 1)) - 1) lor ((w land ((1 lsl (g - 1)) - 1)) lsl g) lor (low lsl gamma_width))
  else begin
    write_gamma buf (w - 1);
    Bitbuf.write_bits buf ~width:(w - 1) low
  end

let read_delta r =
  let w = read_gamma r + 1 in
  if w > 62 then raise Bitreader.Underflow;
  let low = Bitreader.read_bits r ~width:(w - 1) in
  (low lor (1 lsl (w - 1))) - 1

let write_varint buf n =
  if n < 0 then invalid_arg "Codes.write_varint";
  let rec loop n =
    if n < 128 then Bitbuf.write_bits buf ~width:8 n
    else begin
      Bitbuf.write_bits buf ~width:8 (128 lor (n land 127));
      loop (n lsr 7)
    end
  in
  loop n

let read_varint r =
  let rec loop shift acc =
    let b = Bitreader.read_bits r ~width:8 in
    let acc = acc lor ((b land 127) lsl shift) in
    if b land 128 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

(* Cost tables for the small arguments that dominate the protocols' count
   and gap streams.  Immutable and filled from the closed forms at module
   init, so they are observationally pure (lint R2 concerns mutation, not
   initialized lookup tables). *)
let gamma_cost_exact n = (2 * bit_width (n + 1)) - 1

let gamma_cost_table = Array.init 1024 gamma_cost_exact

let gamma_cost n = if n >= 0 && n < 1024 then Array.unsafe_get gamma_cost_table n else gamma_cost_exact n

let delta_cost_exact n =
  let w = bit_width (n + 1) in
  gamma_cost (w - 1) + (w - 1)

let delta_cost_table = Array.init 1024 delta_cost_exact

let delta_cost n = if n >= 0 && n < 1024 then Array.unsafe_get delta_cost_table n else delta_cost_exact n
