(* The state lives in two 32-bit native-int halves and all arithmetic runs
   on local [Int64] values rebuilt from them.  Without flambda, ocamlopt
   keeps let-bound [Int64] locals unboxed in registers, so as long as no
   [Int64] is stored in a field or returned from a non-inlined function,
   [step] allocates nothing.  [step] advances the state and leaves the
   mixed output in the [out_hi]/[out_lo] fields, so integer-returning
   consumers (Rng.bits, Rng.bool, Rng.float) never box an [Int64];
   [next] wraps [step] for the boxed interface.  Pinned by the published
   SplitMix64 vectors in the test suite. *)

type t = { mutable hi : int; mutable lo : int; mutable out_hi : int; mutable out_lo : int }

let[@inline] join hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
let[@inline] hi32 z = Int64.to_int (Int64.shift_right_logical z 32)
let[@inline] lo32 z = Int64.to_int z land 0xFFFFFFFF

let create seed = { hi = hi32 seed; lo = lo32 seed; out_hi = 0; out_lo = 0 }

(* Steele-Lea-Flood finalizer: two xor-shift-multiply rounds and a final
   xor-shift. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] set_out t z =
  t.out_hi <- hi32 z;
  t.out_lo <- lo32 z

(* state <- state + golden gamma; the mixed output lands in [out_*]. *)
let step t =
  let s = Int64.add (join t.hi t.lo) 0x9E3779B97F4A7C15L in
  t.hi <- hi32 s;
  t.lo <- lo32 s;
  set_out t (mix64 s)

(* The state and the last output stay in unboxed [Int64] locals for the
   whole scan and are stored back once, so a scan of any length allocates
   nothing and leaves [t] exactly as that many [step]s would.  The next
   four states are [s + g], [s + 2g], [s + 3g] and [s + 4g], so four
   outputs are mixed at once, as independent chains the processor can
   overlap, and the first of them below [threshold] (if any) is the one
   the scan stops at; the last [limit mod 4] outputs go one at a time. *)
let[@inline] below z threshold = Int64.to_int (Int64.shift_right_logical z 11) < threshold

let scan_below t ~threshold ~limit =
  let s = ref (join t.hi t.lo) and z = ref 0L in
  let i = ref 0 and found = ref false in
  while (not !found) && limit - !i >= 4 do
    let s1 = Int64.add !s 0x9E3779B97F4A7C15L in
    let s2 = Int64.add !s 0x3C6EF372FE94F82AL in
    let s3 = Int64.add !s 0xDAA66D2C7DDF743FL in
    let s4 = Int64.add !s 0x78DDE6E5FD29F054L in
    let z1 = mix64 s1 and z2 = mix64 s2 and z3 = mix64 s3 and z4 = mix64 s4 in
    if below z1 threshold then begin
      s := s1;
      z := z1;
      found := true
    end
    else if below z2 threshold then begin
      s := s2;
      z := z2;
      i := !i + 1;
      found := true
    end
    else if below z3 threshold then begin
      s := s3;
      z := z3;
      i := !i + 2;
      found := true
    end
    else begin
      s := s4;
      z := z4;
      if below z4 threshold then begin
        i := !i + 3;
        found := true
      end
      else i := !i + 4
    end
  done;
  while (not !found) && !i < limit do
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    z := mix64 !s;
    if below !z threshold then found := true else incr i
  done;
  if !found || !i > 0 then begin
    t.hi <- hi32 !s;
    t.lo <- lo32 !s;
    set_out t !z
  end;
  !i

let p61 = (1 lsl 61) - 1

(* The draws of the generator [reseed_mixed ~hi ~lo] leaves, with the
   state in an unboxed local from the mix on: no generator is built and
   nothing is stored but the accepted values.  An output shifted right by
   3 is its top 61 bits, the value [Rng.bits ~width:61] reads. *)
let fill61 ~hi ~lo buf n =
  let s = ref (mix64 (join (hi land 0xFFFFFFFF) (lo land 0xFFFFFFFF))) in
  let i = ref 0 in
  while !i < n do
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    let v = Int64.to_int (Int64.shift_right_logical (mix64 !s) 3) in
    if v < p61 then begin
      buf.(!i) <- v;
      incr i
    end
  done

let out_hi t = t.out_hi
let out_lo t = t.out_lo

let reseed_mixed t ~hi ~lo =
  set_out t (mix64 (join (hi land 0xFFFFFFFF) (lo land 0xFFFFFFFF)));
  t.hi <- t.out_hi;
  t.lo <- t.out_lo

module For_testing = struct
  let next t =
    step t;
    join t.out_hi t.out_lo

  let mix z = mix64 z
end
