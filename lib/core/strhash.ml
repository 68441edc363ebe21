(* Arithmetic over the Mersenne prime p = 2^61 - 1, using OCaml's 63-bit
   native ints.  [reduce] accepts any value < 2^62. *)

let p61 = (1 lsl 61) - 1

let[@inline] reduce x =
  let x = (x land p61) + (x lsr 61) in
  if x >= p61 then x - p61 else x

(* Product mod p for a, b < p, via a 31/30-bit split; every intermediate
   stays below 2^62, the safe range of [reduce]. *)
let[@inline] mul61 a b =
  let au = a lsr 31 and ad = a land 0x7FFFFFFF in
  let bu = b lsr 31 and bd = b land 0x7FFFFFFF in
  let mid = (ad * bu) + (au * bd) in
  let mid_hi = mid lsr 30 and mid_lo = mid land ((1 lsl 30) - 1) in
  (* a*b = au*bu*2^62 + mid*2^31 + ad*bd, and 2^61 = 1 (mod p). *)
  let r1 = reduce ((au * bu * 2) + mid_hi) in
  let r2 = reduce (mid_lo lsl 31) in
  let r3 = reduce (ad * bd) in
  reduce (reduce (r1 + r2) + r3)

let lane_width = 48

(* [lanes] holds each lane's affine coefficients, [a; b] per lane; lane [i]
   covers tag bits [48 i, min (48 (i + 1), bits)). *)
type fn = { point : int; lanes : int array; bits : int }

(* Rejection from 61 uniform bits; top-level so no closure environment is
   allocated per draw. *)
let rec draw_mod_p rng =
  let v = Prng.Rng.bits rng ~width:61 in
  if v < p61 then v else draw_mod_p rng

let draw_point rng = 2 + (draw_mod_p rng mod (p61 - 4))
let draw_a rng = 1 + (draw_mod_p rng mod (p61 - 1))

(* Lane tag of the collapsed value [v]: the low [width] bits of a
   near-uniform value mod p. *)
let lane_tag a b v ~width = reduce (mul61 a v + b) land ((1 lsl width) - 1)

let check_bits name bits = if bits < 1 then invalid_arg ("Strhash." ^ name ^ ": bits")

let create rng ~bits =
  check_bits "create" bits;
  let point = draw_point rng in
  let count = (bits + lane_width - 1) / lane_width in
  let lanes = Array.make (2 * count) 0 in
  for i = 0 to count - 1 do
    let a = draw_a rng in
    lanes.(2 * i) <- a;
    lanes.((2 * i) + 1) <- draw_mod_p rng
  done;
  { point; lanes; bits }

let bits fn = fn.bits

(* Polynomial fingerprint of the bit range [pos, pos + len) of a bit
   string: fold 24-bit chunks with a length prefix so strings of different
   lengths cannot alias — Horner's rule [acc <- acc * point + (chunk + 1)]
   from [acc = len + 1].  The chunking defines the tag values, so it must
   not change.  Whole chunk pairs take one step, [acc * point^2 + ((c1 + 1)
   * point + (c2 + 1))]: the same residue mod p (every step leaves a
   canonical residue), with one 48-bit load and two independent products
   instead of a chain of two.  A range hashes exactly like the extracted
   copy of its bits; whole payloads pass [0, length]. *)
let fingerprint point payload ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bitio.Bits.length payload then
    invalid_arg "Strhash: range out of bounds";
  let stop = pos + len in
  let acc = ref (reduce (len + 1)) in
  let i = ref pos in
  if len >= 48 then begin
    let point2 = mul61 point point in
    while stop - !i >= 48 do
      let w = Bitio.Bits.extract payload ~pos:!i ~width:48 in
      let pair = reduce (mul61 ((w land 0xFFFFFF) + 1) point + ((w lsr 24) + 1)) in
      acc := reduce (mul61 !acc point2 + pair);
      i := !i + 48
    done
  end;
  while !i < stop do
    let chunk_len = min 24 (stop - !i) in
    let chunk = Bitio.Bits.extract payload ~pos:!i ~width:chunk_len in
    (* chunk + 1 so trailing zero chunks still advance the polynomial *)
    acc := reduce (mul61 !acc point + (chunk + 1));
    i := !i + chunk_len
  done;
  !acc

let lane_width_at fn i = min lane_width (fn.bits - (i * lane_width))

(* Write the tag of the collapsed value [v] straight into [buf]. *)
let write_value fn buf v =
  for i = 0 to (Array.length fn.lanes / 2) - 1 do
    let width = lane_width_at fn i in
    Bitio.Bitbuf.write_bits buf ~width (lane_tag fn.lanes.(2 * i) fn.lanes.((2 * i) + 1) v ~width)
  done

let tag_of_value fn v =
  let buf = Bitio.Bitbuf.create ~capacity:fn.bits () in
  write_value fn buf v;
  Bitio.Bitbuf.contents buf

let check_int name x =
  if x < 0 || x lsr 60 <> 0 then invalid_arg ("Strhash." ^ name ^ ": out of range")

let apply fn payload =
  tag_of_value fn (fingerprint fn.point payload ~pos:0 ~len:(Bitio.Bits.length payload))

let apply_int fn x =
  check_int "apply_int" x;
  tag_of_value fn x

(* The int tag of [x] under the lanes stored at [lanes.(pos) ..]. *)
let lanes_int_tag lanes ~pos ~bits x =
  let tag = ref 0 in
  for i = 0 to ((bits + lane_width - 1) / lane_width) - 1 do
    let width = min lane_width (bits - (i * lane_width)) in
    let a = lanes.(pos + (2 * i)) and b = lanes.(pos + (2 * i) + 1) in
    tag := !tag lor (lane_tag a b x ~width lsl (i * lane_width))
  done;
  !tag

let int_tag fn x =
  check_int "int_tag" x;
  if fn.bits > 62 then invalid_arg "Strhash.int_tag: bits";
  lanes_int_tag fn.lanes ~pos:0 ~bits:fn.bits x

let range_int_tag fn payload ~pos ~len =
  if fn.bits > 62 then invalid_arg "Strhash.range_int_tag: bits";
  lanes_int_tag fn.lanes ~pos:0 ~bits:fn.bits (fingerprint fn.point payload ~pos ~len)

(* A tag of at most 62 bits has at most two lanes: [a; b] each. *)
let int_fn_slots = 4

let store_int_fn rng ~bits lanes ~pos =
  if bits < 1 || bits > 62 then invalid_arg "Strhash.store_int_fn: bits";
  ignore (draw_point rng : int);
  for i = 0 to ((bits + lane_width - 1) / lane_width) - 1 do
    let a = draw_a rng in
    lanes.(pos + (2 * i)) <- a;
    lanes.(pos + (2 * i) + 1) <- draw_mod_p rng
  done

let stored_int_tag lanes ~pos ~bits x =
  check_int "stored_int_tag" x;
  lanes_int_tag lanes ~pos ~bits x

let write_int fn buf x =
  check_int "write_int" x;
  write_value fn buf x

(* The fused forms draw each lane's coefficients just before using them:
   point, then [a; b] per lane — the order [create] draws them in, so the
   generator ends in the same state and the tag bits are the same.  A
   check reads every lane even after a mismatch, so the reader always
   advances by exactly [bits]. *)
let rec draw_write_lanes rng buf v remaining =
  if remaining > 0 then begin
    let width = min lane_width remaining in
    let a = draw_a rng in
    let b = draw_mod_p rng in
    Bitio.Bitbuf.write_bits buf ~width (lane_tag a b v ~width);
    draw_write_lanes rng buf v (remaining - width)
  end

let draw_write_range rng ~bits buf payload ~pos ~len =
  check_bits "draw_write" bits;
  let point = draw_point rng in
  draw_write_lanes rng buf (fingerprint point payload ~pos ~len) bits

let draw_write rng ~bits buf payload =
  draw_write_range rng ~bits buf payload ~pos:0 ~len:(Bitio.Bits.length payload)

let rec draw_match_lanes rng reader v remaining ok =
  if remaining <= 0 then ok
  else begin
    let width = min lane_width remaining in
    let a = draw_a rng in
    let b = draw_mod_p rng in
    let theirs = Bitio.Bitreader.read_bits reader ~width in
    draw_match_lanes rng reader v (remaining - width) (ok && theirs = lane_tag a b v ~width)
  end

let draw_matches_range rng ~bits reader payload ~pos ~len =
  check_bits "draw_matches" bits;
  let point = draw_point rng in
  draw_match_lanes rng reader (fingerprint point payload ~pos ~len) bits true

let draw_matches rng ~bits reader payload =
  draw_matches_range rng ~bits reader payload ~pos:0 ~len:(Bitio.Bits.length payload)

let tag rng ~bits payload = apply (create rng ~bits) payload

let tag_int rng ~bits x = apply_int (create rng ~bits) x
