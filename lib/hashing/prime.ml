(* Trial division by the primes to 37, then deterministic Miller-Rabin:
   bases 2, 7, 61 are exact for n < 4 759 123 141 (Jaeschke), the primes
   to 37 for n < 3.3 * 10^24, far beyond our 62-bit inputs (Sorenson &
   Webster). *)
let small_primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]
let witnesses n = if n < 4_759_123_141 then [ 2; 7; 61 ] else small_primes

(* Below 2^31 every residue product stays under 2^62, inside native ints;
   wider moduli go through [Modarith]'s overflow-safe arithmetic. *)
let native_limit = 1 lsl 31

let is_prime n =
  if n < 2 then false
  else if List.mem n small_primes then true
  else if List.exists (fun p -> n mod p = 0) small_primes then false
  else begin
    let mulmod =
      if n <= native_limit then fun a b -> a * b mod n
      else begin
        let n64 = Int64.of_int n in
        fun a b -> Int64.to_int (Modarith.mulmod (Int64.of_int a) (Int64.of_int b) n64)
      end
    in
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

let next_prime n =
  if n < 2 then invalid_arg "Prime.next_prime";
  let rec search n = if is_prime n then n else search (n + 1) in
  search n

let random_prime rng ~below =
  if below <= 2 then invalid_arg "Prime.random_prime";
  let rec draw () =
    let candidate = 2 + Prng.Rng.int rng (below - 2) in
    if is_prime candidate then candidate else draw ()
  in
  draw ()
