type t = { p : int; a : int; b : int; range : int }

let create rng ~universe ~range =
  if universe < 1 || range < 1 then invalid_arg "Carter_wegman.create";
  let p = Prime.next_prime (max universe 2) in
  let a = 1 + Prng.Rng.int rng (p - 1) in
  let b = Prng.Rng.int rng p in
  { p; a; b; range }

(* With [p <= 2^31] and [x < 2^31] the product [a * x] stays below 2^62,
   inside OCaml's native ints: no boxing, no allocation.  That covers
   every universe the protocols hash; wider ones go through [Modarith]'s
   overflow-safe unsigned arithmetic. *)
let native_limit = 1 lsl 31

let hash t x =
  if x < 0 then invalid_arg "Carter_wegman.hash: negative";
  if t.p <= native_limit && x < native_limit then ((t.a * x mod t.p) + t.b) mod t.p mod t.range
  else begin
    let p = Int64.of_int t.p and a = Int64.of_int t.a and b = Int64.of_int t.b in
    let v = Modarith.addmod (Modarith.mulmod a (Int64.of_int x) p) b p in
    Int64.to_int (Int64.unsigned_rem v (Int64.of_int t.range))
  end

module For_testing = struct
  let modulus t = t.p
end
