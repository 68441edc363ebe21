(* Arithmetic over the Mersenne prime p = 2^61 - 1, using OCaml's 63-bit
   native ints, exact mod p with no wider or floating-point arithmetic.
   Every intermediate below stays under 2^62 (the largest OCaml int is
   2^62 - 1).  [canon] makes any x < 2p canonical with one conditional
   subtraction, so a canonical residue plus a value below p needs nothing
   more.  Its branch is kept because its callers almost never reach p;
   the lane sums, which reach it half the time, use [canon_masked].
   Since 2^61 = 1 (mod p), [fold x = (x land p) + (x lsr 61)] keeps the
   residue, and for x < 2^62 it is at most 2^61 = p + 1, so
   [reduce = canon (fold x)] makes any x < 2^62 canonical.

   [mul61 a b] for a, b < 2^61 splits each operand 31/30
   (a = au 2^31 + ad, au < 2^30, ad < 2^31), so
   a b = 2 au bu 2^61 + mid 2^31 + ad bd with mid = ad bu + au bd < 2^62,
   and mid 2^31 = (mid lsr 30) 2^61 + (mid land (2^30 - 1)) 2^31.  The
   high part 2 au bu + (mid lsr 30) + (mid land (2^30 - 1)) 2^31 is at most
   (2^61 - 2^32 + 2) + (2^32 - 1) + (2^61 - 2^31) < 2^62, and ad bd is at
   most (2^31 - 1)^2 < 2^62.  Neither is 2^62 - 1, so each folds to at
   most 2^61 - 1, their sum is below 2^62, and one [reduce] of it is the
   canonical product.

   [mul_small c b] needs c < 2^30 (and b < 2^61): with b = bu 2^31 + bd,
   c b = (c bu lsr 30) 2^61 + (c bu land (2^30 - 1)) 2^31 + c bd, and
   those three terms sum to at most
   (2^30 - 1) + (2^61 - 2^31) + (2^61 - 2^31 - 2^30 + 1) < 2^62: two
   products and one [reduce]. *)

let p61 = (1 lsl 61) - 1

let[@inline] canon x = if x >= p61 then x - p61 else x
let[@inline] fold x = (x land p61) + (x lsr 61)
let[@inline] reduce x = canon (fold x)

let[@inline] mul61 a b =
  let au = a lsr 31 and ad = a land 0x7FFFFFFF in
  let bu = b lsr 31 and bd = b land 0x7FFFFFFF in
  let mid = (ad * bu) + (au * bd) in
  let hi = (au * bu * 2) + (mid lsr 30) + ((mid land 0x3FFFFFFF) lsl 31) in
  reduce (fold hi + fold (ad * bd))

let[@inline] mul_small c b =
  let hi = c * (b lsr 31) in
  reduce ((hi lsr 30) + ((hi land 0x3FFFFFFF) lsl 31) + (c * (b land 0x7FFFFFFF)))

let lane_width = 48

(* [lanes] holds each lane's affine coefficients, [a; b] per lane; lane [i]
   covers tag bits [48 i, min (48 (i + 1), bits)). *)
type fn = { point : int; lanes : int array; bits : int }

(* Rejection from 61 uniform bits; top-level so no closure environment is
   allocated per draw. *)
let rec draw_mod_p rng =
  let v = Prng.Rng.bits rng ~width:61 in
  if v < p61 then v else draw_mod_p rng

(* [canon] without a branch, for the lane sums: every node and every
   instance draws a fresh [b], so whether x >= p is close to a coin flip.
   For x < 2p, d = x - p lies in [-p, p), so [d asr 62] is all ones
   exactly when x < p, and adding p back under that mask makes x
   canonical.  [canon]'s other callers ([reduce], and so every product,
   and the fingerprint steps) keep the branch: their sums reach p with
   odds near 2^-37 or below, so it is always predicted, and the mask
   there measured slower end to end (registry entry 037). *)
let[@inline] canon_masked x =
  let d = x - p61 in
  d + (p61 land (d asr 62))

(* The evaluation point and a lane's multiplier, from one draw [v] each:
   [2 + v mod (p - 4)] and [1 + v mod (p - 1)].  Rejection keeps
   [v < p], so each [mod] is at most one subtraction of its modulus m,
   made under the sign mask of [v - m] as in [canon_masked]; no
   division. *)
let[@inline] point_of v =
  let d = v - (p61 - 4) in
  2 + d + ((p61 - 4) land (d asr 62))

let[@inline] a_of v =
  let d = v - (p61 - 1) in
  1 + d + ((p61 - 1) land (d asr 62))

let draw_point rng = point_of (draw_mod_p rng)
let draw_a rng = a_of (draw_mod_p rng)

(* Lane tag of the collapsed value [v]: the low [width] bits of a
   near-uniform value mod p. *)
let[@inline] lane_tag a b v ~width = canon_masked (mul61 a v + b) land ((1 lsl width) - 1)

let check_bits name bits = if bits < 1 then invalid_arg ("Strhash." ^ name ^ ": bits")

let lane_count bits = (bits + lane_width - 1) / lane_width

(* [Int.min]: the polymorphic [min] is a call into the generic compare. *)
let[@inline] lane_width_of bits i = Int.min lane_width (bits - (i * lane_width))

let create rng ~bits =
  check_bits "create" bits;
  let point = draw_point rng in
  let count = lane_count bits in
  let lanes = Array.make (2 * count) 0 in
  for i = 0 to count - 1 do
    let a = draw_a rng in
    lanes.(2 * i) <- a;
    lanes.((2 * i) + 1) <- draw_mod_p rng
  done;
  { point; lanes; bits }

(* Polynomial fingerprint of the bit string [prefix ‖ range]: the
   [prefix_bits] low bits of [prefix] (at most 24) followed by the bit
   range [pos, pos + len) of a bit string.  It folds 24-bit chunks of
   that string with a length prefix so strings of different lengths
   cannot alias — Horner's rule [acc <- acc * point + (chunk + 1)] from
   [acc = total + 1], for [total = prefix_bits + len].  The chunking
   defines the tag values, so it must not change; how the steps are
   grouped does not, since every grouping leaves the same residue mod p.
   The prefix lies wholly inside the first chunk, which is the prefix
   with the range's first [24 - prefix_bits] bits above it, so after that
   chunk the loop reads the range alone.  The range is checked once, so
   every load inside it is [Bits.unsafe_extract].  The first step,
   [(total + 1) * point], is a small-operand product (a full one past
   2^30 - 2 bits).  A string of at most 48 bits is one load and at most
   two steps.  Longer strings take whole chunk pairs in one step,
   [acc * point^2 + ((c1 + 1) * point + (c2 + 1))], with one 48-bit load
   and two independent products instead of a chain of two; the pair term
   is left unreduced (it is below p + 2^25, so the sum with a canonical
   product stays below 2^62).  The string hashes exactly like a copy of
   its bits, so a prefix is never written out and a range never
   extracted; whole payloads pass [0, length] with no prefix.  Inlined
   into both callers, so the prefix-free one compiles to the plain loop. *)
let[@inline] prefixed_fingerprint point ~prefix ~prefix_bits payload ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bitio.Bits.length payload then
    invalid_arg "Strhash: range out of bounds";
  let total = prefix_bits + len in
  if total = 0 then 1
  else if total <= 48 then begin
    let w = prefix lor (Bitio.Bits.unsafe_extract payload ~pos ~width:len lsl prefix_bits) in
    let acc = canon (mul_small (total + 1) point + (w land 0xFFFFFF) + 1) in
    if total <= 24 then acc else canon (mul61 acc point + (w lsr 24) + 1)
  end
  else begin
    let stop = pos + len in
    let first =
      if total < (1 lsl 30) - 1 then mul_small (total + 1) point else mul61 (total + 1) point
    in
    let head = 24 - prefix_bits in
    let chunk = prefix lor (Bitio.Bits.unsafe_extract payload ~pos ~width:head lsl prefix_bits) in
    let acc = ref (canon (first + chunk + 1)) in
    let i = ref (pos + head) in
    let point2 = mul61 point point in
    while stop - !i >= 48 do
      let w = Bitio.Bits.unsafe_extract payload ~pos:!i ~width:48 in
      let pair = mul_small ((w land 0xFFFFFF) + 1) point + (w lsr 24) + 1 in
      acc := reduce (mul61 !acc point2 + pair);
      i := !i + 48
    done;
    while !i < stop do
      let chunk_len = Int.min 24 (stop - !i) in
      let chunk = Bitio.Bits.unsafe_extract payload ~pos:!i ~width:chunk_len in
      (* chunk + 1 so trailing zero chunks still advance the polynomial *)
      acc := canon (mul61 !acc point + (chunk + 1));
      i := !i + chunk_len
    done;
    !acc
  end

let fingerprint point payload ~pos ~len =
  prefixed_fingerprint point ~prefix:0 ~prefix_bits:0 payload ~pos ~len

(* Write the tag of the collapsed value [v] straight into [buf]. *)
let write_value fn buf v =
  for i = 0 to (Array.length fn.lanes / 2) - 1 do
    let width = lane_width_of fn.bits i in
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

(* The int tag of [x] under the lanes stored in [lanes]. *)
let lanes_int_tag lanes ~bits x =
  let tag = ref 0 in
  for i = 0 to lane_count bits - 1 do
    let width = lane_width_of bits i in
    let a = lanes.(2 * i) and b = lanes.((2 * i) + 1) in
    tag := !tag lor (lane_tag a b x ~width lsl (i * lane_width))
  done;
  !tag

let int_tag fn x =
  check_int "int_tag" x;
  if fn.bits > 62 then invalid_arg "Strhash.int_tag: bits";
  lanes_int_tag fn.lanes ~bits:fn.bits x

let prefixed_int_tag fn ~prefix ~prefix_bits payload ~pos ~len =
  if fn.bits > 62 then invalid_arg "Strhash.prefixed_int_tag: bits";
  if prefix_bits < 0 || prefix_bits > 24 || prefix < 0 || prefix lsr prefix_bits <> 0 then
    invalid_arg "Strhash.prefixed_int_tag: prefix";
  lanes_int_tag fn.lanes ~bits:fn.bits
    (prefixed_fingerprint fn.point ~prefix ~prefix_bits payload ~pos ~len)

(* A tag of at most 62 bits has at most two lanes: [a; b] each. *)
let int_fn_slots = 4

(* The point is drawn (and skipped) so the lanes are [create]'s. *)
let draw_int_fn d ~bits lanes =
  if bits < 1 || bits > 62 then invalid_arg "Strhash.draw_int_fn: bits";
  let count = lane_count bits in
  let r = Prng.Rng.Label.draws d (1 + (2 * count)) in
  for i = 0 to count - 1 do
    lanes.(2 * i) <- a_of r.((2 * i) + 1);
    lanes.((2 * i) + 1) <- r.((2 * i) + 2)
  done

let stored_int_tag lanes ~bits x =
  check_int "stored_int_tag" x;
  lanes_int_tag lanes ~bits x

let write_int fn buf x =
  check_int "write_int" x;
  write_value fn buf x

(* The fused forms take the label cell and make the draws [create]
   would make on [Label.finish d] — point, then [a; b] per lane, each a
   61-bit draw below p — in one [Label.draws] call, so no generator is
   built and the SplitMix state never leaves [Prng].  A check reads every
   lane even after a mismatch, so the reader always advances by exactly
   [bits]. *)
let draw_write_range d ~bits buf payload ~pos ~len =
  check_bits "draw_write_range" bits;
  let lanes = lane_count bits in
  let r = Prng.Rng.Label.draws d (1 + (2 * lanes)) in
  let v = fingerprint (point_of r.(0)) payload ~pos ~len in
  for i = 0 to lanes - 1 do
    let width = lane_width_of bits i in
    let a = a_of r.((2 * i) + 1) in
    Bitio.Bitbuf.write_bits buf ~width (lane_tag a r.((2 * i) + 2) v ~width)
  done

let draw_matches_range d ~bits reader payload ~pos ~len =
  check_bits "draw_matches_range" bits;
  let lanes = lane_count bits in
  let r = Prng.Rng.Label.draws d (1 + (2 * lanes)) in
  let v = fingerprint (point_of r.(0)) payload ~pos ~len in
  let ok = ref true in
  for i = 0 to lanes - 1 do
    let width = lane_width_of bits i in
    let a = a_of r.((2 * i) + 1) in
    let theirs = Bitio.Bitreader.read_bits reader ~width in
    ok := !ok && theirs = lane_tag a r.((2 * i) + 2) v ~width
  done;
  !ok

module For_testing = struct
  let range_int_tag fn payload ~pos ~len =
    prefixed_int_tag fn ~prefix:0 ~prefix_bits:0 payload ~pos ~len
  let canon_masked = canon_masked
  let point_of = point_of
  let a_of = a_of
end
