(* Tests for the workload generators and the statistics/table helpers that
   back the experiment harness. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Setgen ---------- *)

let rng seed = Prng.Rng.of_int seed

let test_random_set () =
  let s = Workload.Setgen.random_set (rng 1) ~universe:1000 ~size:100 in
  check "size" 100 (Array.length s);
  check_bool "sorted set" true (Workload.Setgen.is_sorted_set s);
  Array.iter (fun x -> if x < 0 || x >= 1000 then Alcotest.failf "out of universe: %d" x) s

let test_random_set_full_universe () =
  let s = Workload.Setgen.random_set (rng 2) ~universe:50 ~size:50 in
  Alcotest.(check (array int)) "everything" (Array.init 50 Fun.id) s

let test_random_set_empty () =
  check "empty" 0 (Array.length (Workload.Setgen.random_set (rng 3) ~universe:10 ~size:0))

let test_pair_with_overlap () =
  for seed = 1 to 50 do
    let pair =
      Workload.Setgen.pair_with_overlap (rng seed) ~universe:10000 ~size_s:80 ~size_t:50
        ~overlap:20
    in
    check "|S|" 80 (Array.length pair.Workload.Setgen.s);
    check "|T|" 50 (Array.length pair.Workload.Setgen.t);
    check "overlap" 20
      (Array.length (Workload.Setgen.intersect pair.Workload.Setgen.s pair.Workload.Setgen.t))
  done

let test_pair_with_overlap_extremes () =
  let pair = Workload.Setgen.pair_with_overlap (rng 4) ~universe:100 ~size_s:10 ~size_t:10 ~overlap:0 in
  check "disjoint" 0 (Array.length (Workload.Setgen.intersect pair.Workload.Setgen.s pair.Workload.Setgen.t));
  let pair = Workload.Setgen.pair_with_overlap (rng 5) ~universe:100 ~size_s:10 ~size_t:10 ~overlap:10 in
  Alcotest.(check (array int)) "identical" pair.Workload.Setgen.s pair.Workload.Setgen.t

let test_pair_with_overlap_validation () =
  Alcotest.check_raises "overlap too big"
    (Invalid_argument "Setgen.pair_with_overlap: overlap") (fun () ->
      ignore (Workload.Setgen.pair_with_overlap (rng 1) ~universe:100 ~size_s:5 ~size_t:5 ~overlap:6));
  Alcotest.check_raises "universe too small"
    (Invalid_argument "Setgen.pair_with_overlap: universe too small") (fun () ->
      ignore (Workload.Setgen.pair_with_overlap (rng 1) ~universe:10 ~size_s:8 ~size_t:8 ~overlap:1))

let test_zipf_pair () =
  let pair = Workload.Setgen.zipf_pair (rng 6) ~universe:10000 ~size:200 ~exponent:1.1 in
  check "|S|" 200 (Array.length pair.Workload.Setgen.s);
  check "|T|" 200 (Array.length pair.Workload.Setgen.t);
  check_bool "sorted" true (Workload.Setgen.is_sorted_set pair.Workload.Setgen.s);
  (* skew: the head of the distribution is shared, so overlap is large *)
  let overlap = Array.length (Workload.Setgen.intersect pair.Workload.Setgen.s pair.Workload.Setgen.t) in
  check_bool (Printf.sprintf "natural overlap (%d)" overlap) true (overlap > 30)

let test_zipf_skew_increases_overlap () =
  let overlap_at exponent =
    let pair = Workload.Setgen.zipf_pair (rng 7) ~universe:10000 ~size:200 ~exponent in
    Array.length (Workload.Setgen.intersect pair.Workload.Setgen.s pair.Workload.Setgen.t)
  in
  check_bool "more skew, more overlap" true (overlap_at 1.5 > overlap_at 0.5)

let test_family_with_core () =
  let sets = Workload.Setgen.family_with_core (rng 8) ~universe:100000 ~players:5 ~size:30 ~core:7 in
  check "players" 5 (Array.length sets);
  Array.iter (fun set -> check "size" 30 (Array.length set)) sets;
  let intersection = Iset.inter_many (Array.to_list sets) in
  check "core exact" 7 (Array.length intersection)

let prop_pair_overlap_exact =
  QCheck.Test.make ~name:"pair overlap always exact" ~count:100
    QCheck.(triple small_signed_int (int_range 0 30) (int_range 0 30))
    (fun (seed, a, b) ->
      let overlap = min a b in
      let pair =
        Workload.Setgen.pair_with_overlap (rng seed) ~universe:10000 ~size_s:a ~size_t:b ~overlap
      in
      Array.length (Workload.Setgen.intersect pair.Workload.Setgen.s pair.Workload.Setgen.t)
      = overlap)

(* The formulation [pair_with_overlap] and [random_set] replaced, kept as
   the reference: Floyd's sampling into a Hashtbl, a sort, a value
   shuffle by one [Rng.int] per position, and [s]/[t] sorted from the
   shuffled prefix.  The library draws the same values in the same order
   and returns the same sets. *)
let reference_random_set rng ~universe ~size =
  let chosen = Hashtbl.create (2 * size) in
  for j = universe - size to universe - 1 do
    let t = Prng.Rng.int rng (j + 1) in
    Hashtbl.replace chosen (if Hashtbl.mem chosen t then j else t) ()
  done;
  Array.of_list (List.sort compare (List.of_seq (Hashtbl.to_seq_keys chosen)))

let reference_shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let reference_pair rng ~universe ~size_s ~size_t ~overlap =
  let elements = reference_random_set rng ~universe ~size:(size_s + size_t - overlap) in
  reference_shuffle rng elements;
  let s = Array.sub elements 0 size_s in
  let t = Array.append (Array.sub elements 0 overlap) (Array.sub elements size_s (size_t - overlap)) in
  { Workload.Setgen.s = Iset.of_array s; t = Iset.of_array t }

(* Shapes: random sizes, overlap 0 and overlap = min size, empty sides, and
   universes from exactly the support up to 2^40. *)
let pair_shape_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* size_s = oneof [ return 0; int_bound 80 ] in
    let* size_t = oneof [ return 0; int_bound 80 ] in
    let* overlap =
      let m = min size_s size_t in
      oneof [ return 0; return m; int_bound m ]
    in
    let support = size_s + size_t - overlap in
    let* universe =
      oneof
        [
          return (max 1 support);
          map (fun extra -> max 1 support + extra) (int_bound 64);
          return (1 lsl 20);
          return (1 lsl 40);
        ]
    in
    return (seed, universe, size_s, size_t, overlap))

let prop_pair_matches_reference =
  QCheck.Test.make ~name:"pair_with_overlap = value-shuffle reference, same final state" ~count:500
    (QCheck.make
       ~print:(fun (seed, u, a, b, o) -> Printf.sprintf "seed=%d universe=%d |S|=%d |T|=%d overlap=%d" seed u a b o)
       pair_shape_gen)
    (fun (seed, universe, size_s, size_t, overlap) ->
      let mine = rng seed and theirs = rng seed in
      let got = Workload.Setgen.pair_with_overlap mine ~universe ~size_s ~size_t ~overlap in
      let want = reference_pair theirs ~universe ~size_s ~size_t ~overlap in
      got.Workload.Setgen.s = want.Workload.Setgen.s
      && got.Workload.Setgen.t = want.Workload.Setgen.t
      && Prng.Rng.int64 mine = Prng.Rng.int64 theirs)

let test_random_set_matches_reference () =
  List.iter
    (fun (universe, size) ->
      for seed = 1 to 20 do
        let mine = rng seed and theirs = rng seed in
        Alcotest.(check (array int))
          (Printf.sprintf "universe %d size %d seed %d" universe size seed)
          (reference_random_set theirs ~universe ~size)
          (Workload.Setgen.random_set mine ~universe ~size);
        Alcotest.(check int64) "final state" (Prng.Rng.int64 theirs) (Prng.Rng.int64 mine)
      done)
    [ (1, 1); (2, 1); (7, 7); (128, 64); (128, 128); (1000, 100); (1 lsl 20, 128); (1 lsl 40, 300) ]

(* ---------- Iset (many-way ops) ---------- *)

let test_iset_inter_many () =
  let result = Iset.inter_many [ [| 1; 2; 3; 4 |]; [| 2; 3; 4; 5 |]; [| 0; 3; 4 |] ] in
  Alcotest.(check (array int)) "inter" [| 3; 4 |] result

let iset_gen =
  QCheck.Gen.(list_size (int_bound 60) (int_bound 500) >|= Iset.of_list)

let iset_arb = QCheck.make ~print:(fun a -> QCheck.Print.(array int) a) iset_gen

let prop_iset_algebra =
  QCheck.Test.make ~name:"set algebra laws (de Morgan on finite sets)" ~count:300
    QCheck.(pair iset_arb iset_arb)
    (fun (a, b) ->
      let open Iset in
      is_valid (union a b) && is_valid (inter a b) && is_valid (diff a b)
      && equal (union a b) (union b a)
      && equal (inter a b) (inter b a)
      && cardinal (union a b) + cardinal (inter a b) = cardinal a + cardinal b
      && equal (diff a b) (diff (union a b) b)
      && equal (union (inter a b) (union (diff a b) (diff b a))) (union a b)
      && subset (inter a b) a
      && subset a (union a b))

let prop_iset_mem_consistent =
  QCheck.Test.make ~name:"mem agrees with linear search" ~count:300
    QCheck.(pair iset_arb (int_bound 500))
    (fun (a, x) -> Iset.mem a x = Array.exists (fun y -> y = x) a)

let test_iset_mem () =
  let s = [| 1; 5; 9; 22; 100 |] in
  check_bool "present" true (Iset.mem s 9);
  check_bool "absent" false (Iset.mem s 10);
  check_bool "first" true (Iset.mem s 1);
  check_bool "last" true (Iset.mem s 100);
  check_bool "empty" false (Iset.mem [||] 1)

(* ---------- Iset kernels against a list reference ---------- *)

let ref_of a = Array.to_list a
let ref_inter a b = List.filter (fun x -> List.mem x b) a
let ref_union a b = List.sort_uniq compare (a @ b)
let ref_diff a b = List.filter (fun x -> not (List.mem x b)) a
let ref_subset a b = List.for_all (fun x -> List.mem x b) a

(* Pairs covering empty, singleton, identical, disjoint and negative-valued
   sets, besides random overlapping ones. *)
let iset_pair_gen =
  QCheck.Gen.(
    let set = list_size (int_bound 40) (int_range (-200) 200) >|= Iset.of_list in
    oneof
      [
        pair set set;
        (set >|= fun a -> (a, a));
        (set >|= fun a -> (a, Iset.empty));
        (set >|= fun a -> (Iset.empty, a));
        return (Iset.empty, Iset.empty);
        map2 (fun x y -> ([| x |], [| y |])) (int_range (-3) 3) (int_range (-3) 3);
        (set >|= fun a -> (a, Array.map (fun x -> x + 401) a));
        (set >|= fun a -> (Iset.filter (fun x -> x land 1 = 0) a, a));
      ])

let prop_iset_kernels =
  QCheck.Test.make ~name:"Iset kernels = list reference" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) (array int))
       iset_pair_gen)
    (fun (a, b) ->
      let la = ref_of a and lb = ref_of b in
      let open Iset in
      ref_of (inter a b) = ref_inter la lb
      && ref_of (union a b) = ref_union la lb
      && ref_of (diff a b) = ref_diff la lb
      && subset a b = ref_subset la lb
      && subset b a = ref_subset lb la
      && equal a b = (la = lb)
      && List.for_all (fun x -> mem a x = List.mem x la) (List.init 21 (fun i -> i - 10) @ lb))

let prop_iset_is_valid =
  QCheck.Test.make ~name:"is_valid = strictly increasing" ~count:1000
    QCheck.(array_of_size Gen.(int_bound 12) (int_range (-5) 5))
    (fun a ->
      let rec increasing = function x :: (y :: _ as rest) -> x < y && increasing rest | _ -> true in
      Iset.is_valid a = increasing (Array.to_list a))

let test_iset_is_valid () =
  check_bool "empty" true (Iset.is_valid [||]);
  check_bool "singleton" true (Iset.is_valid [| -7 |]);
  check_bool "sorted" true (Iset.is_valid [| -3; 0; 5 |]);
  check_bool "unsorted" false (Iset.is_valid [| 1; 3; 2 |]);
  check_bool "duplicate" false (Iset.is_valid [| 1; 2; 2; 3 |]);
  check_bool "unsorted at the front" false (Iset.is_valid [| 2; 1 |])

(* ---------- Summary ---------- *)

let test_summary_basic () =
  let s = Stats.Summary.of_ints [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.Summary.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.Summary.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Stats.Summary.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Stats.Summary.stddev

let test_summary_single () =
  let s = Stats.Summary.of_ints [ 42 ] in
  Alcotest.(check (float 1e-9)) "mean" 42.0 s.Stats.Summary.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.Summary.stddev;
  Alcotest.(check (float 1e-9)) "ci" 0.0 (Stats.Summary.ci95 s)

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_floats: empty") (fun () ->
      ignore (Stats.Summary.of_floats []))

(* ---------- Binomial (Wilson bounds) ---------- *)

let in_unit_interval (lo, hi) = 0.0 <= lo && lo <= hi && hi <= 1.0

(* Zero failures: the lower bound must be exactly 0 (the sweep gates on
   lower95 <= limit, so a spurious positive lower bound would fail
   every clean cell) and the upper bound must shrink with n. *)
let test_wilson_zero_failures () =
  List.iter
    (fun trials ->
      let lo, hi = Stats.Binomial.wilson ~failures:0 ~trials ~z:1.96 in
      check_bool (Printf.sprintf "n=%d in [0,1]" trials) true (in_unit_interval (lo, hi));
      Alcotest.(check (float 0.0)) (Printf.sprintf "n=%d lower = 0" trials) 0.0 lo;
      check_bool (Printf.sprintf "n=%d upper > 0" trials) true (hi > 0.0))
    [ 1; 2; 120; 65_000; 1_000_000 ];
  let _, hi_small = Stats.Binomial.wilson ~failures:0 ~trials:100 ~z:1.96 in
  let _, hi_big = Stats.Binomial.wilson ~failures:0 ~trials:1_000_000 ~z:1.96 in
  check_bool "upper shrinks with n" true (hi_big < hi_small)

(* All failures: symmetric — upper pinned at 1, lower approaches 1. *)
let test_wilson_all_failures () =
  List.iter
    (fun trials ->
      let lo, hi = Stats.Binomial.wilson ~failures:trials ~trials ~z:1.96 in
      check_bool (Printf.sprintf "n=%d in [0,1]" trials) true (in_unit_interval (lo, hi));
      Alcotest.(check (float 0.0)) (Printf.sprintf "n=%d upper = 1" trials) 1.0 hi;
      check_bool (Printf.sprintf "n=%d lower < 1" trials) true (lo < 1.0))
    [ 1; 2; 120; 65_000 ];
  let lo, _ = Stats.Binomial.wilson ~failures:1_000_000 ~trials:1_000_000 ~z:1.96 in
  check_bool "lower -> 1 at huge n" true (lo > 0.999)

(* n = 1: a single trial carries almost no evidence either way — both
   intervals must stay wide and ordered. *)
let test_wilson_single_trial () =
  let lo0, hi0 = Stats.Binomial.wilson ~failures:0 ~trials:1 ~z:1.96 in
  let lo1, hi1 = Stats.Binomial.wilson ~failures:1 ~trials:1 ~z:1.96 in
  check_bool "0/1 ordered" true (in_unit_interval (lo0, hi0));
  check_bool "1/1 ordered" true (in_unit_interval (lo1, hi1));
  check_bool "0/1 inconclusive" true (hi0 > 0.5);
  check_bool "1/1 inconclusive" true (lo1 < 0.5)

(* Huge n: the interval must concentrate around the observed rate and
   bracket it — the 10^6-trial regime the mega-sweep gates in. *)
let test_wilson_huge_n () =
  let trials = 1_000_000 in
  let failures = 250 in
  let rate = float_of_int failures /. float_of_int trials in
  let lo, hi = Stats.Binomial.wilson ~failures ~trials ~z:1.96 in
  check_bool "brackets rate" true (lo < rate && rate < hi);
  check_bool "tight at 10^6" true (hi -. lo < 1e-4);
  (* one failure in a million: lower bound ~0, upper a few-in-a-million *)
  let lo1, hi1 = Stats.Binomial.wilson ~failures:1 ~trials ~z:1.96 in
  check_bool "1/10^6 lower ~ 0" true (lo1 < 1e-6);
  check_bool "1/10^6 upper small" true (hi1 < 1e-5)

let test_wilson_rejects_bad_args () =
  Alcotest.check_raises "trials=0" (Invalid_argument "Binomial.wilson: trials") (fun () ->
      ignore (Stats.Binomial.wilson ~failures:0 ~trials:0 ~z:1.96));
  Alcotest.check_raises "failures>n" (Invalid_argument "Binomial.wilson: failures") (fun () ->
      ignore (Stats.Binomial.wilson ~failures:2 ~trials:1 ~z:1.96));
  Alcotest.check_raises "z<=0" (Invalid_argument "Binomial.wilson: z") (fun () ->
      ignore (Stats.Binomial.wilson ~failures:0 ~trials:1 ~z:0.0))

(* ---------- Table ---------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let test_table_render () =
  let t = Stats.Table.create ~title:"T" ~columns:[ "a"; "bee" ] in
  Stats.Table.add_row t [ "1"; "2" ];
  Stats.Table.add_row t [ "100"; "x" ];
  let out = Stats.Table.render t in
  check_bool "has title" true (String.length out > 0 && out.[0] = 'T');
  check_bool "contains header" true (contains out "bee");
  check_bool "contains row" true (contains out "100");
  check_bool "rows in order" true (contains out "| 1   | 2   |")

let test_table_arity () =
  let t = Stats.Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Stats.Table.add_row t [ "1" ])

(* ---------- Json ---------- *)

let parses input = Result.is_ok (Stats.Json.of_string input)

let test_json_rejects () =
  List.iter
    (fun input -> check_bool (Printf.sprintf "rejects %S" input) false (parses input))
    [
      "";
      "{";
      "[1,]";
      {|{"a":1,}|};
      {|{"a" 1}|};
      "01";
      "-";
      "1.";
      "1e";
      "+1";
      {|"\x"|};
      {|"\u12G4"|};
      "\"a\x01b\"";
      "nul";
      "1 2";
      {|"unterminated|};
    ]

let test_json_accepts () =
  let value input expected =
    match Stats.Json.of_string input with
    | Ok v -> check_bool (Printf.sprintf "%S parses as expected" input) true (v = expected)
    | Error msg -> Alcotest.failf "%S rejected: %s" input msg
  in
  value "-0" (Stats.Json.Int 0);
  value "1e+5" (Stats.Json.Float 1e5);
  value "  [ ]  " (Stats.Json.List []);
  value {|"é\/"|} (Stats.Json.Str "é/");
  value {|{"a": {"b": [{"c": null}, {}]}, "d": -1.5}|}
    Stats.Json.(
      Obj
        [
          ("a", Obj [ ("b", List [ Obj [ ("c", Null) ]; Obj [] ]) ]);
          ("d", Float (-1.5));
        ])

(* Report-shaped values survive [to_string] and [to_string_pretty] and
   back: every float here prints exactly at [%.12g]. *)
let test_json_round_trip () =
  let report =
    Stats.Json.(
      Obj
        [
          ("bench", Str "chaos");
          ("reproduce", Str "dune exec bin/intersect_cli.exe -- chaos --seed 7");
          ( "cells",
            List
              [
                Obj
                  [
                    ("protocol", Str "bucket");
                    ("k", Int 1024);
                    ("ratio", Float 1.095);
                    ("alloc_bytes_per_run", Float 90733.3);
                    ("error_lower95", Float 1e-05);
                    ("whole", Float 2.0);
                    ("min", Int min_int);
                    ("pass", Bool true);
                    ("plan", Null);
                    ("detail", Str "quote \" slash \\ tab \t nl \n ctl \x01 é");
                  ];
                Obj [];
                List [];
              ] );
        ])
  in
  List.iter
    (fun (name, render) ->
      match Stats.Json.of_string (render report) with
      | Ok v -> check_bool (name ^ " round-trips") true (v = report)
      | Error msg -> Alcotest.failf "%s output rejected: %s" name msg)
    [ ("to_string", Stats.Json.to_string); ("to_string_pretty", Stats.Json.to_string_pretty) ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload-stats"
    [
      ( "setgen",
        [
          Alcotest.test_case "random set" `Quick test_random_set;
          Alcotest.test_case "full universe" `Quick test_random_set_full_universe;
          Alcotest.test_case "empty" `Quick test_random_set_empty;
          Alcotest.test_case "pair with overlap" `Quick test_pair_with_overlap;
          Alcotest.test_case "overlap extremes" `Quick test_pair_with_overlap_extremes;
          Alcotest.test_case "validation" `Quick test_pair_with_overlap_validation;
          Alcotest.test_case "zipf" `Quick test_zipf_pair;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew_increases_overlap;
          Alcotest.test_case "family with core" `Quick test_family_with_core;
          qt prop_pair_overlap_exact;
          Alcotest.test_case "random set = reference" `Quick test_random_set_matches_reference;
          qt prop_pair_matches_reference;
        ] );
      ( "iset",
        [
          Alcotest.test_case "inter_many" `Quick test_iset_inter_many;
          Alcotest.test_case "mem" `Quick test_iset_mem;
          qt prop_iset_algebra;
          qt prop_iset_mem_consistent;
          Alcotest.test_case "is_valid" `Quick test_iset_is_valid;
          qt prop_iset_is_valid;
          qt prop_iset_kernels;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "single" `Quick test_summary_single;
          Alcotest.test_case "empty rejected" `Quick test_summary_empty_rejected;
        ] );
      ( "binomial",
        [
          Alcotest.test_case "wilson zero failures" `Quick test_wilson_zero_failures;
          Alcotest.test_case "wilson all failures" `Quick test_wilson_all_failures;
          Alcotest.test_case "wilson single trial" `Quick test_wilson_single_trial;
          Alcotest.test_case "wilson huge n" `Quick test_wilson_huge_n;
          Alcotest.test_case "wilson rejects bad args" `Quick test_wilson_rejects_bad_args;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
      ( "json",
        [
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
          Alcotest.test_case "accepts edge cases" `Quick test_json_accepts;
          Alcotest.test_case "round-trips reports" `Quick test_json_round_trip;
        ] );
    ]
