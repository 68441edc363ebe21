(* A binary search for the highest set bit. *)
let bit_width v =
  if v < 1 then invalid_arg "Codes.bit_width";
  let n = ref 1 and v = ref v in
  if !v lsr 32 <> 0 then (n := !n + 32; v := !v lsr 32);
  if !v lsr 16 <> 0 then (n := !n + 16; v := !v lsr 16);
  if !v lsr 8 <> 0 then (n := !n + 8; v := !v lsr 8);
  if !v lsr 4 <> 0 then (n := !n + 4; v := !v lsr 4);
  if !v lsr 2 <> 0 then (n := !n + 2; v := !v lsr 2);
  if !v lsr 1 <> 0 then n := !n + 1;
  !n

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

let read_gamma r =
  let w = read_unary r + 1 in
  let low = Bitreader.read_bits r ~width:(w - 1) in
  (low lor (1 lsl (w - 1))) - 1

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
  let low = Bitreader.read_bits r ~width:(w - 1) in
  (low lor (1 lsl (w - 1))) - 1

let write_rice buf ~k n =
  if n < 0 || k < 0 then invalid_arg "Codes.write_rice";
  write_unary buf (n lsr k);
  Bitbuf.write_bits buf ~width:k (n land ((1 lsl k) - 1))

let read_rice r ~k =
  let q = read_unary r in
  let rem = Bitreader.read_bits r ~width:k in
  (q lsl k) lor rem

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

let rice_cost ~k n = (n lsr k) + 1 + k

let varint_cost n =
  let rec loop n acc = if n < 128 then acc + 8 else loop (n lsr 7) (acc + 8) in
  loop n 0
