(* Tests for modular arithmetic, primality, and the Carter–Wegman family
   of Fact 2.2. *)

open Hashing

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Modarith ---------- *)

let test_addmod_basic () =
  Alcotest.(check int64) "no wrap" 5L (Modarith.addmod 2L 3L 100L);
  Alcotest.(check int64) "reduces" 1L (Modarith.addmod 7L 4L 10L);
  (* values near 2^63 where signed addition would overflow *)
  let m = Int64.max_int in
  let a = Int64.sub m 1L in
  Alcotest.(check int64) "near max" (Int64.sub m 2L) (Modarith.addmod a a m)

let test_mulmod_matches_reference () =
  (* Compare against the naive method for moduli small enough to be safe. *)
  let rng = Prng.Rng.of_int 5 in
  for _ = 1 to 2000 do
    let m = Int64.of_int (2 + Prng.Rng.int rng 1_000_000) in
    let a = Int64.rem (Prng.Rng.For_testing.int64 rng) m and b = Int64.rem (Prng.Rng.For_testing.int64 rng) m in
    let a = Int64.abs a and b = Int64.abs b in
    let expected = Int64.rem (Int64.mul a b) m in
    Alcotest.(check int64) "mulmod" expected (Modarith.mulmod a b m)
  done

let test_mulmod_large () =
  (* (2^40)^2 mod (2^41 - 1): since 2^41 = 1 (mod m), 2^80 = 2^(80-41) * 1...
     compute independently: 2^80 mod (2^41-1) = 2^(80 mod 41) * ... use powmod
     self-consistency instead: mulmod x x m = powmod x 2 m. *)
  let m = Int64.sub (Int64.shift_left 1L 41) 1L in
  let x = Int64.shift_left 1L 40 in
  Alcotest.(check int64) "square" (Modarith.For_testing.powmod x 2L m) (Modarith.mulmod x x m);
  (* 2^41 mod (2^41 - 1) = 1 *)
  Alcotest.(check int64) "order" 1L (Modarith.For_testing.powmod 2L 41L m)

let test_powmod () =
  Alcotest.(check int64) "3^4 mod 5" 1L (Modarith.For_testing.powmod 3L 4L 5L);
  Alcotest.(check int64) "fermat" 1L (Modarith.For_testing.powmod 17L 1_000_002L 1_000_003L)

(* ---------- Prime ---------- *)

let test_small_primes () =
  let primes = [ 2; 3; 5; 7; 11; 13; 97; 7919; 1_000_003 ] in
  List.iter (fun p -> check_bool (string_of_int p) true (Prime.is_prime p)) primes;
  let composites = [ 0; 1; 4; 9; 91 (* 7*13 *); 561 (* Carmichael *); 1_000_001 ] in
  List.iter (fun c -> check_bool (string_of_int c) false (Prime.is_prime c)) composites

let test_prime_sieve_agreement () =
  (* Cross-check Miller-Rabin against a sieve up to 20k. *)
  let n = 20_000 in
  let sieve = Array.make (n + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to n do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= n do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  for i = 0 to n do
    if Prime.is_prime i <> sieve.(i) then Alcotest.failf "disagree at %d" i
  done

(* Trial division: the reference for the native/wide boundary. *)
let trial_division_prime n =
  n >= 2
  &&
  let rec no_divisor d = d * d > n || (n mod d <> 0 && no_divisor (d + 1)) in
  no_divisor 2

(* Below 2^31 [is_prime] runs the native Miller-Rabin, above it the
   overflow-safe one: every n within 2000 of 2^31 against trial
   division. *)
let test_prime_native_boundary () =
  (* Strong pseudoprimes to two of the native bases 2, 7 and 61 (2 and 7,
     2 and 61, 7 and 61): each base is needed. *)
  List.iter
    (fun n -> check_bool (string_of_int n) false (Prime.is_prime n))
    [ 2_269_093; 916_327; 79_381 ];
  let b = 1 lsl 31 in
  for n = b - 2000 to b + 2000 do
    if Prime.is_prime n <> trial_division_prime n then Alcotest.failf "disagree at %d" n
  done

let reference_next_prime n =
  let rec go n = if trial_division_prime n then n else go (n + 1) in
  go n

(* 2^20 is the sweep's universe; k^3 for k = 16 .. 1024 are the universes
   bucket reduces to, 1024^3 = 2^30 the last native one. *)
let test_next_prime_protocol_moduli () =
  check "2^20" 1_048_583 (Prime.next_prime (1 lsl 20));
  List.iter
    (fun k ->
      let n = k * k * k in
      check (Printf.sprintf "%d^3" k) (reference_next_prime n) (Prime.next_prime n))
    [ 4; 16; 64; 256; 1024 ]

let test_large_primes () =
  (* Known 45-bit prime: 2^45 - 229 is composite? Use verified pair instead:
     2^31 - 1 (Mersenne) is prime; 2^32 + 1 = 641 * 6700417 is not. *)
  check_bool "2^31-1" true (Prime.is_prime ((1 lsl 31) - 1));
  check_bool "2^32+1" false (Prime.is_prime ((1 lsl 32) + 1));
  check_bool "2^61-1" true (Prime.is_prime ((1 lsl 61) - 1));
  (* Either side of the switch between witness sets: the largest 32-bit
     prime, a strong pseudoprime to bases 2, 3, 5 and 7, and the first
     strong pseudoprime to bases 2, 7 and 61 (where the switch sits). *)
  check_bool "2^32-5" true (Prime.is_prime 4_294_967_291);
  check_bool "3215031751" false (Prime.is_prime 3_215_031_751);
  check_bool "4759123141" false (Prime.is_prime 4_759_123_141)

let test_next_prime () =
  check "from 90" 97 (Prime.next_prime 90);
  check "from prime" 97 (Prime.next_prime 97);
  check "from 2" 2 (Prime.next_prime 2)

(* ---------- Hash families ---------- *)

(* Does any pair of distinct elements of [s] collide under [hash]? *)
let has_collision ~hash s =
  let seen = Hashtbl.create (Array.length s) in
  Array.exists
    (fun x ->
      let h = hash x in
      Hashtbl.mem seen h || (Hashtbl.replace seen h (); false))
    s

(* The fraction of [trials] random [set_size]-subsets on which a freshly
   drawn Carter–Wegman function has a collision. *)
let collision_rate ~universe ~range ~set_size ~trials seed =
  let rng = Prng.Rng.of_int seed in
  let failures = ref 0 in
  for _ = 1 to trials do
    (* a set of [set_size] distinct random elements *)
    let table = Hashtbl.create set_size in
    while Hashtbl.length table < set_size do
      Hashtbl.replace table (Prng.Rng.int rng universe) ()
    done;
    let s = Array.of_seq (Hashtbl.to_seq_keys table) in
    let h = Carter_wegman.create rng ~universe ~range in
    if has_collision ~hash:(Carter_wegman.hash h) s then incr failures
  done;
  float_of_int !failures /. float_of_int trials

let test_cw_range () =
  let rng = Prng.Rng.of_int 3 in
  let h = Carter_wegman.create rng ~universe:1_000_000 ~range:37 in
  for x = 0 to 9_999 do
    let v = Carter_wegman.hash h x in
    if v < 0 || v >= 37 then Alcotest.failf "out of range: %d" v
  done

let test_cw_collision_bound () =
  (* Pairwise independence: k=10 elements into range 1000 collide with
     probability <= binom(10,2)/1000 = 4.5% (plus mod-range slack). *)
  let rate =
    collision_rate ~universe:1_000_000 ~range:1000 ~set_size:10 ~trials:2000 7
  in
  if rate > 0.09 then Alcotest.failf "collision rate too high: %f" rate

let test_cw_large_universe () =
  (* Exercise the mulmod slow path: universe beyond 2^32. *)
  let rng = Prng.Rng.of_int 13 in
  let universe = 1 lsl 45 in
  let h = Carter_wegman.create rng ~universe ~range:1024 in
  let seen = Hashtbl.create 16 in
  for i = 0 to 999 do
    let x = (i * 97_003_471) + (1 lsl 40) in
    let v = Carter_wegman.hash h x in
    if v < 0 || v >= 1024 then Alcotest.failf "out of range: %d" v;
    Hashtbl.replace seen v ()
  done;
  (* 1000 draws into 1024 buckets should touch many distinct buckets. *)
  if Hashtbl.length seen < 400 then Alcotest.failf "suspiciously few buckets: %d" (Hashtbl.length seen)

(* The prime cache against a fresh search: more universes than the
   cache holds, in a cycle (so every entry is replaced), then two
   universes alternating as bucket's assignment hash and its universe
   reduction do, each drawn as a new function. *)
let test_cw_cached_primes () =
  let rng = Prng.Rng.of_int 21 in
  let modulus universe =
    Carter_wegman.For_testing.modulus (Carter_wegman.create rng ~universe ~range:16)
  in
  let universes =
    [ 1; 2; 3; 90; 97; 1 lsl 16; 1 lsl 20; (1 lsl 20) + 7; 4096; 262_144; 1 lsl 24; 1 lsl 30 ]
    @ [ (1 lsl 31) + 11; 1 lsl 36; 1_000_000_007 ]
  in
  for round = 1 to 3 do
    List.iter
      (fun u ->
        let where = Printf.sprintf "round %d, universe %d" round u in
        check where (Prime.next_prime (max u 2)) (modulus u))
      universes
  done;
  for i = 1 to 20 do
    let u = if i land 1 = 0 then 1 lsl 24 else 1 lsl 20 in
    check (Printf.sprintf "alternating, universe %d" u) (Prime.next_prime u) (modulus u)
  done

(* A remembered argument costs a scan and allocates nothing. *)
let test_memo_ints_hit_allocation () =
  let calls = ref 0 in
  let f x =
    incr calls;
    x * 3
  in
  let cached = Bitio.Memo.ints ~entries:4 f in
  List.iter (fun x -> check "miss" (3 * x) (cached x)) [ 1; 2; 3; 4 ];
  let _, w =
    Obsv.Window.measure (fun () ->
        for i = 0 to 9_999 do
          ignore (Sys.opaque_identity (cached (1 + (i land 3))))
        done)
  in
  let _, empty = Obsv.Window.measure (fun () -> ()) in
  check "hits allocate nothing" 0 (w.Obsv.Window.alloc_bytes - empty.Obsv.Window.alloc_bytes);
  check "hits call nothing" 4 !calls;
  check "a fifth argument replaces the oldest" 15 (cached 5);
  check "the oldest is gone" 3 (cached 1);
  check "calls" 6 !calls;
  Alcotest.check_raises "entries < 1" (Invalid_argument "Memo.ints") (fun () ->
      ignore (Bitio.Memo.ints ~entries:0 f 1))

let () =
  Alcotest.run "hashing"
    [
      ( "modarith",
        [
          Alcotest.test_case "addmod" `Quick test_addmod_basic;
          Alcotest.test_case "mulmod vs reference" `Quick test_mulmod_matches_reference;
          Alcotest.test_case "mulmod large" `Quick test_mulmod_large;
          Alcotest.test_case "powmod" `Quick test_powmod;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "sieve agreement" `Quick test_prime_sieve_agreement;
          Alcotest.test_case "large primes" `Quick test_large_primes;
          Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "native boundary" `Quick test_prime_native_boundary;
          Alcotest.test_case "next_prime protocol moduli" `Quick test_next_prime_protocol_moduli;
        ] );
      ( "families",
        [
          Alcotest.test_case "cw range" `Quick test_cw_range;
          Alcotest.test_case "cw collision bound" `Quick test_cw_collision_bound;
          Alcotest.test_case "cw large universe" `Quick test_cw_large_universe;
          Alcotest.test_case "cw cached primes = next_prime" `Quick test_cw_cached_primes;
          Alcotest.test_case "memo hit allocates nothing" `Quick test_memo_ints_hit_allocation;
        ] );
    ]
