(* Trial division by the primes to 37, then deterministic Miller-Rabin:
   bases 2, 7, 61 are exact for n < 4 759 123 141 (Jaeschke), the primes
   to 37 for n < 3.3 * 10^24, far beyond our 62-bit inputs (Sorenson &
   Webster). *)
let small_primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]
let witnesses n = if n < 4_759_123_141 then [ 2; 7; 61 ] else small_primes

(* Below 2^31 every residue product stays under 2^62, inside native ints,
   so the test runs on plain ints with no allocation: trial division
   unrolled, then the strong-probable-prime test for bases 2, 7 and 61
   with an iterative square-and-multiply.  Wider moduli go through
   [Modarith]'s overflow-safe arithmetic. *)
let native_limit = 1 lsl 31

let powmod_native b e n =
  let r = ref 1 and b = ref (b mod n) and e = ref e in
  while !e > 0 do
    if !e land 1 = 1 then r := !r * !b mod n;
    b := !b * !b mod n;
    e := !e lsr 1
  done;
  !r

(* [n - 1 = d * 2^s] with [d] odd. *)
let strong_probable_prime_native n ~d ~s a =
  let a = a mod n in
  a = 0
  ||
  let x = ref (powmod_native a d n) in
  !x = 1
  || !x = n - 1
  ||
  let found = ref false and r = ref 1 in
  while (not !found) && !r < s do
    x := !x * !x mod n;
    found := !x = n - 1;
    incr r
  done;
  !found

let is_prime_native n =
  if n <= 37 then
    n = 2 || n = 3 || n = 5 || n = 7 || n = 11 || n = 13 || n = 17 || n = 19 || n = 23 || n = 29
    || n = 31 || n = 37
  else if
    n land 1 = 0
    || n mod 3 = 0
    || n mod 5 = 0
    || n mod 7 = 0
    || n mod 11 = 0
    || n mod 13 = 0
    || n mod 17 = 0
    || n mod 19 = 0
    || n mod 23 = 0
    || n mod 29 = 0
    || n mod 31 = 0
    || n mod 37 = 0
  then false
  else begin
    let d = ref (n - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d lsr 1;
      incr s
    done;
    let d = !d and s = !s in
    strong_probable_prime_native n ~d ~s 2
    && strong_probable_prime_native n ~d ~s 7
    && strong_probable_prime_native n ~d ~s 61
  end

let is_prime_wide n =
  if List.exists (fun p -> n mod p = 0) small_primes then false
  else begin
    let n64 = Int64.of_int n in
    let mulmod a b = Int64.to_int (Modarith.mulmod (Int64.of_int a) (Int64.of_int b) n64) in
    let rec powmod b e =
      if e = 0 then 1
      else begin
        let half = powmod (mulmod b b) (e lsr 1) in
        if e land 1 = 1 then mulmod half b else half
      end
    in
    let d = ref (n - 1) and s = ref 0 in
    while !d mod 2 = 0 do
      d := !d / 2;
      incr s
    done;
    let strong_probable_prime a =
      let a = a mod n in
      if a = 0 then true
      else begin
        let x = ref (powmod a !d) in
        if !x = 1 || !x = n - 1 then true
        else begin
          let witness_found = ref false in
          let r = ref 1 in
          while (not !witness_found) && !r < !s do
            x := mulmod !x !x;
            if !x = n - 1 then witness_found := true;
            incr r
          done;
          !witness_found
        end
      end
    in
    List.for_all strong_probable_prime (witnesses n)
  end

let is_prime n = if n < 2 then false else if n <= native_limit then is_prime_native n else is_prime_wide n

let next_prime n =
  if n < 2 then invalid_arg "Prime.next_prime";
  let rec search n = if is_prime n then n else search (n + 1) in
  search n
