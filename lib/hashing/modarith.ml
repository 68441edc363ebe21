(* Unsigned order on int64: adding [min_int] flips the sign bit, which maps
   it onto the signed order.  Written on [<] at type int64 (a primitive
   comparison) so the loops below keep their values unboxed. *)
let[@inline] lt_u a b = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* Wrapped around 2^64, or simply reached m: subtract m once.  The
   condition becomes a mask rather than a branch: shift-and-add tests
   data-dependent bits, which a branch predictor cannot learn. *)
let[@inline] add_u a b m =
  let s = Int64.add a b in
  let over = Bool.to_int (lt_u s a) lor Bool.to_int (not (lt_u s m)) in
  Int64.sub s (Int64.logand m (Int64.neg (Int64.of_int over)))

let addmod a b m = add_u a b m

(* Shift-and-add: every intermediate stays below [m], so no product ever
   overflows.  Callers with operands small enough for a native product
   ([Carter_wegman.hash], [Prime.is_prime] below 2^31) do not come here. *)
let mulmod a b m =
  let result = ref 0L and a = ref (Int64.unsigned_rem a m) and b = ref b in
  while !b <> 0L do
    result := add_u !result (Int64.logand !a (Int64.neg (Int64.logand !b 1L))) m;
    a := add_u !a !a m;
    b := Int64.shift_right_logical !b 1
  done;
  !result

module For_testing = struct
  let powmod b e m =
    let result = ref 1L in
    let b = ref (Int64.unsigned_rem b m) in
    let e = ref e in
    while !e <> 0L do
      if Int64.logand !e 1L = 1L then result := mulmod !result !b m;
      b := mulmod !b !b m;
      e := Int64.shift_right_logical !e 1
    done;
    !result
end
