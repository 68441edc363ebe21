(* Tests for the deterministic randomness substrate: determinism, domain
   separation (the "common random string" contract) and coarse statistics. *)

open Prng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_splitmix_reference () =
  (* Reference outputs for seed 0 from the published SplitMix64 algorithm. *)
  let g = Splitmix64.create 0L in
  Alcotest.(check string) "first" "e220a8397b1dcdaf" (Printf.sprintf "%Lx" (Splitmix64.For_testing.next g));
  Alcotest.(check string) "second" "6e789e6aa1b965f4" (Printf.sprintf "%Lx" (Splitmix64.For_testing.next g));
  Alcotest.(check string) "third" "6c45d188009454f" (Printf.sprintf "%Lx" (Splitmix64.For_testing.next g))

let test_determinism () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.For_testing.int64 a) (Rng.For_testing.int64 b)
  done

let test_label_independent_of_position () =
  (* The whole point of with_label: both parties derive the same stream no
     matter how much they already consumed from their own copy. *)
  let a = Rng.of_int 7 in
  let b = Rng.of_int 7 in
  for _ = 1 to 13 do
    ignore (Rng.For_testing.int64 b)
  done;
  let la = Rng.with_label a "stage1/node3" in
  let lb = Rng.with_label b "stage1/node3" in
  for _ = 1 to 20 do
    Alcotest.(check int64) "label stream equal" (Rng.For_testing.int64 la) (Rng.For_testing.int64 lb)
  done

let test_labels_distinct () =
  let root = Rng.of_int 7 in
  let a = Rng.For_testing.int64 (Rng.with_label root "x") in
  let b = Rng.For_testing.int64 (Rng.with_label root "y") in
  check_bool "different labels differ" true (a <> b)

let test_int_bounds () =
  let rng = Rng.of_int 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  check "bound 1" 0 (Rng.int rng 1)

let test_int_rejects_bad_bound () =
  let rng = Rng.of_int 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound") (fun () ->
      ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 100k draws; each bucket within 5%. *)
  let rng = Rng.of_int 99 in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 10 in
      if abs (c - expected) > expected / 20 then Alcotest.failf "bucket %d count %d" i c)
    counts

let test_bits_width () =
  let rng = Rng.of_int 5 in
  for _ = 1 to 1000 do
    let v = Rng.bits rng ~width:7 in
    if v < 0 || v >= 128 then Alcotest.failf "bits out of range: %d" v
  done;
  check "width 0" 0 (Rng.bits rng ~width:0)

let test_float_range () =
  let rng = Rng.of_int 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of range: %f" v
  done

let test_shuffle_permutes () =
  let rng = Rng.of_int 8 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 (fun i -> i)) sorted;
  check_bool "actually moved something" true (a <> Array.init 100 (fun i -> i))

(* [shuffle] tracks the draw width instead of recomputing it, so lengths
   0..300 cross every power-of-two boundary the width changes at.  The
   reference swaps position [i] with [Rng.int t (i + 1)] for [i] from the
   top down: the permutation and the generator's final state must both
   match. *)
let test_shuffle_matches_per_element () =
  for n = 0 to 300 do
    for seed = 1 to 4 do
      let mine = Rng.of_int ((1000 * seed) + n) and theirs = Rng.of_int ((1000 * seed) + n) in
      let a = Array.init n Fun.id and b = Array.init n Fun.id in
      Rng.shuffle mine a;
      for i = n - 1 downto 1 do
        let j = Rng.int theirs (i + 1) in
        let tmp = b.(i) in
        b.(i) <- b.(j);
        b.(j) <- tmp
      done;
      Alcotest.(check (array int)) (Printf.sprintf "permutation n=%d" n) b a;
      Alcotest.(check int64) (Printf.sprintf "final state n=%d" n) (Rng.For_testing.int64 theirs) (Rng.For_testing.int64 mine)
    done
  done

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int always in bounds" ~count:1000
    QCheck.(pair small_signed_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.of_int seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* ---------- Integer Bernoulli decisions ---------- *)

(* The rates the fault draws must agree on: the edges, a rate so small a
   run rarely sees a success, a fair coin, the largest rate below one and
   a subnormal one. *)
let edge_rates = [ 0.0; 1.0; 1e-5; 0.5; Float.pred 1.0; Float.succ 0.0 ]

let gen_rate = QCheck.Gen.(oneof [ oneofl edge_rates; float_bound_inclusive 1.0 ])

(* The reference: one [Rng.float] draw per position, as the historical
   per-bit fault loop made them. *)
let successes_per_draw rng ~p n =
  List.filter (fun _ -> Rng.float rng < p) (List.init n Fun.id)

(* The same decisions as scans that stop at each success and resume after
   it. *)
let successes_scanned rng ~p n =
  let threshold = Rng.threshold ~p in
  let rec go i acc =
    let j = Rng.scan_below rng ~threshold ~limit:(n - i) in
    if i + j >= n then List.rev acc else go (i + j + 1) ((i + j) :: acc)
  in
  go 0 []

let prop_scan_matches_per_draw =
  QCheck.Test.make ~name:"threshold scans = per-draw bernoulli, same final state" ~count:500
    (QCheck.make
       ~print:(fun (seed, p, n) -> Printf.sprintf "seed=%d p=%h n=%d" seed p n)
       QCheck.Gen.(triple small_signed_int gen_rate (int_bound 3000)))
    (fun (seed, p, n) ->
      let a = Rng.of_int seed and b = Rng.of_int seed and c = Rng.of_int seed in
      let want = successes_per_draw a ~p n in
      let per_below =
        let threshold = Rng.threshold ~p in
        List.filter (fun _ -> Rng.below b threshold) (List.init n Fun.id)
      in
      let scanned = successes_scanned c ~p n in
      let next = Rng.For_testing.int64 a in
      want = scanned && want = per_below && next = Rng.For_testing.int64 b && next = Rng.For_testing.int64 c)

(* Draws right at the threshold decide exactly as the float comparison:
   every 53-bit value within two of [threshold ~p]. *)
let prop_threshold_exact =
  QCheck.Test.make ~name:"threshold ~p decides exactly as v / 2^53 < p" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_rate)
    (fun p ->
      let threshold = Rng.threshold ~p in
      List.for_all
        (fun v ->
          v < 0 || v >= 1 lsl 53
          || (float_of_int v /. 9007199254740992.0 < p) = (v < threshold))
        (List.init 5 (fun d -> threshold - 2 + d)))

let test_threshold_edges () =
  check "p = 0" 0 (Rng.threshold ~p:0.0);
  check "p = 1" (1 lsl 53) (Rng.threshold ~p:1.0);
  check "largest p below 1" ((1 lsl 53) - 1) (Rng.threshold ~p:(Float.pred 1.0));
  check "subnormal p" 1 (Rng.threshold ~p:(Float.succ 0.0));
  check "p = 3 / 2^53" 3 (Rng.threshold ~p:(ldexp 3.0 (-53)));
  check "p just above 3 / 2^53" 4 (Rng.threshold ~p:(Float.succ (ldexp 3.0 (-53))));
  List.iter
    (fun p ->
      Alcotest.check_raises "rate outside [0, 1]" (Invalid_argument "Rng.threshold") (fun () ->
          ignore (Rng.threshold ~p)))
    [ -0.1; 1.5; Float.nan ];
  (* an empty scan consumes nothing *)
  let a = Rng.of_int 3 and b = Rng.of_int 3 in
  check "empty scan" 0 (Rng.scan_below a ~threshold:(1 lsl 53) ~limit:0);
  Alcotest.(check int64) "empty scan leaves the state" (Rng.For_testing.int64 b) (Rng.For_testing.int64 a)

let test_scan_allocation_free () =
  let rng = Rng.of_int 9 in
  let threshold = Rng.threshold ~p:1e-6 in
  ignore (Rng.scan_below rng ~threshold ~limit:10);
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Rng.scan_below rng ~threshold ~limit:1000))
  done;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then Alcotest.failf "scan_below allocated %.0f words over 100 scans" words

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [ Alcotest.test_case "reference vectors" `Quick test_splitmix_reference ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "label independent of position" `Quick test_label_independent_of_position;
          Alcotest.test_case "labels distinct" `Quick test_labels_distinct;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_int_rejects_bad_bound;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "bits width" `Quick test_bits_width;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "shuffle = per-element int" `Quick test_shuffle_matches_per_element;
          qt prop_int_in_bounds;
        ] );
      ( "bernoulli thresholds",
        [
          Alcotest.test_case "threshold edges" `Quick test_threshold_edges;
          Alcotest.test_case "scan allocates nothing" `Quick test_scan_allocation_free;
          qt prop_scan_matches_per_draw;
          qt prop_threshold_exact;
        ] );
    ]
