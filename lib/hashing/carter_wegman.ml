type t = { p : int; a : int; b : int; range : int }

(* Both parties draw a function on every attempt, often over the same
   universe, and a prime search costs microseconds, so the primes of the
   last few universes are kept per domain.  Bucket's assignment hash
   alternates between two universes under universe reduction; eight
   entries hold every universe a run or a small-k sweep cycles through. *)
let prime_above = Bitio.Memo.ints ~entries:8 (fun universe -> Prime.next_prime (max universe 2))

let create rng ~universe ~range =
  if universe < 1 || range < 1 then invalid_arg "Carter_wegman.create";
  let p = prime_above universe in
  let a = 1 + Prng.Rng.int rng (p - 1) in
  let b = Prng.Rng.int rng p in
  { p; a; b; range }

(* With [p <= 2^31] and [x < 2^31] the product [a * x] stays below 2^62,
   inside OCaml's native ints: no boxing, no allocation.  There
   [y = (a * x mod p) + b < 2p], so the second [mod p] is one subtraction
   of [p], undone under a sign mask rather than a branch, which [b]'s
   randomness would make a coin flip: d = y - p lies in [-p, p), and
   [d asr 62] is all ones exactly when y < p.  Wider universes go through
   [Modarith]'s boxing arithmetic: the bucket protocol's assignment hash
   over k^3 from k = 1 291, and the tree's leaf hash over n > 2^31
   (ROADMAP item 14 plans an allocation-free path below 2^62). *)
let native_limit = 1 lsl 31

let hash t x =
  if x < 0 then invalid_arg "Carter_wegman.hash: negative";
  if t.p <= native_limit && x < native_limit then begin
    let d = (t.a * x mod t.p) + t.b - t.p in
    (d + (t.p land (d asr 62))) mod t.range
  end
  else begin
    let p = Int64.of_int t.p and a = Int64.of_int t.a and b = Int64.of_int t.b in
    let v = Modarith.addmod (Modarith.mulmod a (Int64.of_int x) p) b p in
    Int64.to_int (Int64.unsigned_rem v (Int64.of_int t.range))
  end

module For_testing = struct
  let modulus t = t.p
end
