(* The root seed is stored as 32-bit native halves next to the generator,
   so label derivation — xor the FNV-hashed label into the root, then one
   SplitMix64 mix — runs on local [Int64] values that ocamlopt keeps
   unboxed, and never stores an [Int64] anywhere.  The root halves are
   mutable only so a {!Label} cell can reseed its own generator in place. *)
type t = { gen : Splitmix64.t; mutable root_hi : int; mutable root_lo : int }

let[@inline] join hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
let[@inline] hi32 z = Int64.to_int (Int64.shift_right_logical z 32)
let[@inline] lo32 z = Int64.to_int z land 0xFFFFFFFF

let of_seed seed = { gen = Splitmix64.create seed; root_hi = hi32 seed; root_lo = lo32 seed }

let of_int n = of_seed (Int64.of_int n)

(* FNV-1a over 64 bits.  [Label] exposes the hash incrementally: FNV-1a is
   a left-to-right fold over bytes, so feeding fragments ["eqb/g"; "12";
   "/t3"] is bit-identical to hashing their concatenation — which is what
   lets the protocol hot paths derive per-instance generators without
   building the label string at all.  A derivation cell owns the generator
   [finish] hands out, so a hot loop that [restart]s one cell derives any
   number of generators with no allocation, and a loop whose labels share
   a prefix hashes the prefix once and [rewind]s to it.  A caller that
   needs only a few bounded draws skips the generator: [draws] derives and
   draws in one step, into the cell's own buffer. *)
module Label = struct
  (* [h_*]: the hash of the fragments fed so far; [m_*]: the hash at the
     mark, which [rewind] restores; [buf]: the values [draws] returns,
     empty until the first [draws], so a cell that only derives
     generators (every [with_label]) allocates no buffer. *)
  type d = {
    mutable h_hi : int;
    mutable h_lo : int;
    mutable m_hi : int;
    mutable m_lo : int;
    r_hi : int;
    r_lo : int;
    out : t;
    mutable buf : int array;
  }

  let offset_hi = 0xCBF29CE4
  let offset_lo = 0x84222325

  let start t =
    {
      h_hi = offset_hi;
      h_lo = offset_lo;
      m_hi = offset_hi;
      m_lo = offset_lo;
      r_hi = t.root_hi;
      r_lo = t.root_lo;
      out = { gen = Splitmix64.create 0L; root_hi = 0; root_lo = 0 };
      buf = [||];
    }

  let restart d =
    d.h_hi <- offset_hi;
    d.h_lo <- offset_lo;
    d.m_hi <- offset_hi;
    d.m_lo <- offset_lo

  let mark d =
    d.m_hi <- d.h_hi;
    d.m_lo <- d.h_lo

  let rewind d =
    d.h_hi <- d.m_hi;
    d.h_lo <- d.m_lo

  let[@inline] fold h code = Int64.mul (Int64.logxor h (Int64.of_int code)) 0x100000001B3L

  let add_byte d code =
    let h = fold (join d.h_hi d.h_lo) code in
    d.h_hi <- hi32 h;
    d.h_lo <- lo32 h

  let add_char d c = add_byte d (Char.code c)

  let add d s =
    let h = ref (join d.h_hi d.h_lo) in
    for i = 0 to String.length s - 1 do
      h := fold !h (Char.code (String.unsafe_get s i))
    done;
    d.h_hi <- hi32 !h;
    d.h_lo <- lo32 !h

  (* Decimal digits, most significant first: the bytes [string_of_int]
     would produce, without the string. *)
  let rec add_nat d n =
    if n >= 10 then add_nat d (n / 10);
    add_byte d (Char.code '0' + (n mod 10))

  (* Below 10^15 the digits fit 4 bits each in one int: packed least
     significant first into the high nibbles, they come back out most
     significant first from the bottom, and fold into a local hash that
     is stored once. *)
  let add_small d n =
    let packed = ref (n mod 10) and count = ref 1 and m = ref (n / 10) in
    while !m > 0 do
      packed := (!packed lsl 4) lor (!m mod 10);
      incr count;
      m := !m / 10
    done;
    let h = ref (join d.h_hi d.h_lo) in
    for _ = 1 to !count do
      h := fold !h (Char.code '0' + (!packed land 15));
      packed := !packed lsr 4
    done;
    d.h_hi <- hi32 !h;
    d.h_lo <- lo32 !h

  let add_int d n =
    if n < 0 then add d (string_of_int n)
    else if n < 1_000_000_000_000_000 then add_small d n
    else add_nat d n

  let finish d =
    let g = d.out in
    Splitmix64.reseed_mixed g.gen ~hi:(d.r_hi lxor d.h_hi) ~lo:(d.r_lo lxor d.h_lo);
    (* Until the first step the out halves hold the mixed seed, which is
       the derived generator's root. *)
    g.root_hi <- Splitmix64.out_hi g.gen;
    g.root_lo <- Splitmix64.out_lo g.gen;
    g

  let draws d n =
    if Array.length d.buf < n then d.buf <- Array.make (max n (2 * Array.length d.buf)) 0;
    Splitmix64.fill61 ~hi:(d.r_hi lxor d.h_hi) ~lo:(d.r_lo lxor d.h_lo) d.buf n;
    d.buf
end

let with_label t label =
  let d = Label.start t in
  Label.add d label;
  Label.finish d

(* The draws below take the top bits of the 64-bit output, assembled from
   the generator's unboxed 32-bit halves so no Int64 is ever built on the
   hot path.  Each is draw-for-draw identical to
   [Int64.shift_right_logical (For_testing.int64 t) (64 - width)]. *)
let bits t ~width =
  if width < 0 || width > 62 then invalid_arg "Rng.bits: width";
  if width = 0 then 0
  else begin
    Splitmix64.step t.gen;
    let hi = Splitmix64.out_hi t.gen in
    if width <= 32 then hi lsr (32 - width)
    else (hi lsl (width - 32)) lor (Splitmix64.out_lo t.gen lsr (64 - width))
  end

(* Top-level rejection loop: a local [let rec] closure would allocate its
   environment on every [int] call. *)
let rec reject t ~width bound =
  let v = bits t ~width in
  if v < bound then v else reject t ~width bound

let int t bound =
  if bound < 1 then invalid_arg "Rng.int: bound";
  if bound = 1 then 0 else reject t ~width:(Bitio.Codes.bit_width (bound - 1)) bound

let bool t =
  Splitmix64.step t.gen;
  Splitmix64.out_hi t.gen lsr 31 = 1

(* The top 53 bits of the next output. *)
let[@inline] bits53 t =
  Splitmix64.step t.gen;
  (Splitmix64.out_hi t.gen lsl 21) lor (Splitmix64.out_lo t.gen lsr 11)

(* 53 uniform bits into [0, 1). *)
let float t = float_of_int (bits53 t) /. 9007199254740992.0

(* [float t < p] compares [v / 2^53] with [p] for the 53-bit draw [v];
   the division is exact, so the comparison is [v < p * 2^53] (also exact:
   a power-of-two scaling), which for an integer [v] is [v < ceil (p *
   2^53)].  Deciding on that integer skips the float conversion and the
   division, and lets [scan_below] run the decisions of a whole run of
   Bernoulli draws inside the generator. *)
let threshold ~p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Rng.threshold";
  int_of_float (Float.ceil (p *. 9007199254740992.0))

let below t threshold = bits53 t < threshold

let scan_below t ~threshold ~limit = Splitmix64.scan_below t.gen ~threshold ~limit

(* Fisher-Yates with the draws of [int t (i + 1)] for [i] from [n - 1]
   down to 1, inlined: [bit_width i] changes only when [i] falls below a
   power of two, so the width is tracked rather than recomputed, and the
   rejection loop steps the generator directly. *)
let shuffle t a =
  let n = Array.length a in
  if n > 1 then begin
    let g = t.gen in
    let width = ref (Bitio.Codes.bit_width (n - 1)) in
    for i = n - 1 downto 1 do
      if i < 1 lsl (!width - 1) then decr width;
      let w = !width in
      let j = ref (i + 1) in
      while !j > i do
        Splitmix64.step g;
        let hi = Splitmix64.out_hi g in
        j :=
          if w <= 32 then hi lsr (32 - w)
          else (hi lsl (w - 32)) lor (Splitmix64.out_lo g lsr (64 - w))
      done;
      let j = !j in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
  end

module For_testing = struct
  let int64 t = Splitmix64.For_testing.next t.gen
end
