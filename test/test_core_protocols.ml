(* End-to-end tests of the intersection protocols: the trivial baseline,
   the one-round hashing protocol, the O(sqrt k)-round bucket protocol
   (Theorem 3.1), the verification-tree protocol (Theorem 1.1), the
   Verified amplification wrapper, and the disjointness baselines. *)

open Intersect

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let iset = Alcotest.testable (fun ppf s -> Iset.pp ppf s) Iset.equal

let gen_pair seed ~universe ~size_s ~size_t ~overlap =
  Workload.Setgen.pair_with_overlap (Prng.Rng.of_int seed) ~universe ~size_s ~size_t ~overlap

let run_protocol protocol seed ~universe s t =
  protocol.Protocol.run (Prng.Rng.with_label (Prng.Rng.of_int seed) "trial") ~universe s t

(* Exactness rate of a protocol over [trials] random instances. *)
let failure_count protocol ~trials ~universe ~size ~overlap =
  let failures = ref 0 in
  for seed = 1 to trials do
    let pair = gen_pair (1000 + seed) ~universe ~size_s:size ~size_t:size ~overlap in
    let outcome = run_protocol protocol seed ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t in
    if not (Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t) then
      incr failures
  done;
  !failures

(* ---------- Trivial ---------- *)

let test_trivial_exact () =
  check "never fails" 0 (failure_count Trivial.protocol ~trials:50 ~universe:10000 ~size:30 ~overlap:11)

let test_trivial_cost_matches_encoding () =
  let pair = gen_pair 1 ~universe:100000 ~size_s:64 ~size_t:64 ~overlap:16 in
  let outcome = run_protocol Trivial.protocol 1 ~universe:100000 pair.Workload.Setgen.s pair.Workload.Setgen.t in
  let expected_bits =
    Bitio.Set_codec.gaps_cost pair.Workload.Setgen.s
    + Bitio.Set_codec.gaps_cost (Iset.inter pair.Workload.Setgen.s pair.Workload.Setgen.t)
  in
  check "bits" expected_bits outcome.Protocol.cost.Commsim.Cost.total_bits;
  check "rounds" 2 outcome.Protocol.cost.Commsim.Cost.rounds

let test_trivial_full_exchange_one_round () =
  let pair = gen_pair 2 ~universe:10000 ~size_s:20 ~size_t:20 ~overlap:5 in
  let outcome =
    run_protocol Trivial.protocol_full_exchange 2 ~universe:10000 pair.Workload.Setgen.s
      pair.Workload.Setgen.t
  in
  check_bool "exact" true (Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t);
  (* both messages are independent: a single round *)
  check "one round" 1 outcome.Protocol.cost.Commsim.Cost.rounds

let test_trivial_rejects_bad_inputs () =
  Alcotest.check_raises "unsorted" (Invalid_argument "Protocol: S is not a sorted set") (fun () ->
      ignore (run_protocol Trivial.protocol 1 ~universe:10 [| 3; 1 |] [| 1 |]))

(* ---------- One-round hash ---------- *)

let test_one_round_exact_whp () =
  let failures =
    failure_count (One_round_hash.protocol ()) ~trials:100 ~universe:1_000_000 ~size:100 ~overlap:30
  in
  if failures > 2 then Alcotest.failf "failures: %d/100" failures

let test_one_round_simultaneous () =
  (* Both directions are sent before either party reads: the two messages
     are causally independent, i.e. a single simultaneous round. *)
  let pair = gen_pair 3 ~universe:100000 ~size_s:50 ~size_t:50 ~overlap:10 in
  let outcome =
    run_protocol (One_round_hash.protocol ()) 3 ~universe:100000 pair.Workload.Setgen.s
      pair.Workload.Setgen.t
  in
  check "rounds" 1 outcome.Protocol.cost.Commsim.Cost.rounds;
  check "messages" 2 outcome.Protocol.cost.Commsim.Cost.messages

let test_one_round_cost_scales_klogk () =
  (* bits per element should grow like log k: ~4 log k tags. *)
  let bits_at size =
    let pair = gen_pair 4 ~universe:(1 lsl 40) ~size_s:size ~size_t:size ~overlap:(size / 4) in
    let outcome =
      run_protocol (One_round_hash.protocol ()) 4 ~universe:(1 lsl 40) pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    outcome.Protocol.cost.Commsim.Cost.total_bits
  in
  let b256 = bits_at 256 and b1024 = bits_at 1024 in
  (* 4x elements, slightly more than 4x bits, far below 8x *)
  check_bool "superlinear but mildly" true (b1024 > 4 * b256 && b1024 < 8 * b256)

let prop_one_round_sandwich =
  QCheck.Test.make ~name:"one-round sandwich invariant" ~count:100
    QCheck.(triple small_signed_int (list (int_bound 500)) (list (int_bound 500)))
    (fun (seed, ls, lt) ->
      let s = Iset.of_list ls and t = Iset.of_list lt in
      let outcome = run_protocol (One_round_hash.protocol ()) seed ~universe:501 s t in
      Protocol.For_testing.sandwich_holds outcome ~s ~t)

(* ---------- Bucket protocol (Theorem 3.1) ---------- *)

let test_bucket_exact_whp () =
  let failures =
    failure_count (Bucket_protocol.protocol ()) ~trials:60 ~universe:1_000_000 ~size:64 ~overlap:20
  in
  if failures > 3 then Alcotest.failf "failures: %d/60" failures

let test_bucket_identity_small_universe () =
  (* universe <= k^3: the reduction is skipped, outputs still exact *)
  let failures =
    failure_count (Bucket_protocol.protocol ()) ~trials:40 ~universe:5000 ~size:40 ~overlap:15
  in
  if failures > 2 then Alcotest.failf "failures: %d/40" failures

let test_bucket_large_universe () =
  let failures =
    failure_count (Bucket_protocol.protocol ()) ~trials:30 ~universe:(1 lsl 50) ~size:50 ~overlap:25
  in
  if failures > 2 then Alcotest.failf "failures: %d/30" failures

let test_bucket_edge_cases () =
  let outcome = run_protocol (Bucket_protocol.protocol ()) 5 ~universe:1000 Iset.empty Iset.empty in
  Alcotest.check iset "empty" Iset.empty outcome.Protocol.alice;
  let outcome = run_protocol (Bucket_protocol.protocol ()) 6 ~universe:1000 [| 7 |] [| 7 |] in
  Alcotest.check iset "singleton" [| 7 |] outcome.Protocol.alice;
  let outcome = run_protocol (Bucket_protocol.protocol ()) 7 ~universe:1000 [| 7 |] [| 8 |] in
  Alcotest.check iset "disjoint singleton" Iset.empty outcome.Protocol.bob

let test_bucket_equal_sets () =
  let s = Iset.of_list (List.init 100 (fun i -> i * 7)) in
  let outcome = run_protocol (Bucket_protocol.protocol ()) 8 ~universe:10000 s s in
  Alcotest.check iset "alice" s outcome.Protocol.alice;
  Alcotest.check iset "bob" s outcome.Protocol.bob

let test_bucket_rounds_grow_sublinearly () =
  (* rounds ~ sqrt k, certainly well below k *)
  let rounds_at size =
    let pair = gen_pair 9 ~universe:1_000_000 ~size_s:size ~size_t:size ~overlap:(size / 2) in
    let outcome =
      run_protocol (Bucket_protocol.protocol ()) 9 ~universe:1_000_000 pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    outcome.Protocol.cost.Commsim.Cost.rounds
  in
  let r256 = rounds_at 256 in
  check_bool "way below k" true (r256 < 256);
  check_bool "more than constant" true (r256 > 8)

(* ---------- Tree protocol (Theorem 1.1) ---------- *)

let test_tree_exact_whp () =
  List.iter
    (fun r ->
      let failures =
        failure_count (Tree_protocol.protocol ~r ()) ~trials:40 ~universe:1_000_000 ~size:64
          ~overlap:21
      in
      if failures > 2 then Alcotest.failf "r=%d failures: %d/40" r failures)
    [ 1; 2; 3; 4 ]

let test_tree_log_star_exact () =
  let failures =
    failure_count (Tree_protocol.protocol_log_star ()) ~trials:40 ~universe:1_000_000 ~size:128
      ~overlap:64
  in
  if failures > 2 then Alcotest.failf "failures: %d/40" failures

let test_tree_rounds_bound () =
  List.iter
    (fun r ->
      let pair = gen_pair 10 ~universe:1_000_000 ~size_s:256 ~size_t:256 ~overlap:100 in
      let outcome =
        run_protocol (Tree_protocol.protocol ~r ()) 10 ~universe:1_000_000 pair.Workload.Setgen.s
          pair.Workload.Setgen.t
      in
      check_bool
        (Printf.sprintf "r=%d rounds %d <= 4r" r outcome.Protocol.cost.Commsim.Cost.rounds)
        true
        (outcome.Protocol.cost.Commsim.Cost.rounds <= 4 * r))
    [ 1; 2; 3; 5 ]

let test_tree_edge_cases () =
  List.iter
    (fun r ->
      let outcome = run_protocol (Tree_protocol.protocol ~r ()) 11 ~universe:100 Iset.empty Iset.empty in
      Alcotest.check iset "empty" Iset.empty outcome.Protocol.alice;
      let outcome = run_protocol (Tree_protocol.protocol ~r ()) 12 ~universe:100 [| 3 |] [| 3 |] in
      Alcotest.check iset "same singleton" [| 3 |] outcome.Protocol.bob;
      let outcome = run_protocol (Tree_protocol.protocol ~r ()) 13 ~universe:100 [| 3 |] [| 4 |] in
      Alcotest.check iset "disjoint singleton" Iset.empty outcome.Protocol.alice)
    [ 1; 2; 3 ]

let test_tree_identical_sets () =
  let s = Iset.of_list (List.init 200 (fun i -> (i * 13) + 1)) in
  let outcome = run_protocol (Tree_protocol.protocol ~r:3 ()) 14 ~universe:10000 s s in
  Alcotest.check iset "full intersection" s outcome.Protocol.alice

let test_tree_disjoint_sets () =
  let s = Iset.of_list (List.init 100 (fun i -> 2 * i)) in
  let t = Iset.of_list (List.init 100 (fun i -> (2 * i) + 1)) in
  let outcome = run_protocol (Tree_protocol.protocol ~r:2 ()) 15 ~universe:10000 s t in
  Alcotest.check iset "empty" Iset.empty outcome.Protocol.alice;
  Alcotest.check iset "empty bob" Iset.empty outcome.Protocol.bob

let test_tree_asymmetric_sizes () =
  let pair = gen_pair 16 ~universe:100000 ~size_s:10 ~size_t:200 ~overlap:5 in
  let outcome =
    run_protocol (Tree_protocol.protocol ~r:3 ()) 16 ~universe:100000 pair.Workload.Setgen.s
      pair.Workload.Setgen.t
  in
  check_bool "exact" true (Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t)

let test_tree_communication_decreases_with_r () =
  (* The T1 shape in miniature: more rounds, fewer bits (r=1 vs r=3). *)
  let avg_bits r =
    let total = ref 0 in
    for seed = 1 to 10 do
      let pair = gen_pair (300 + seed) ~universe:(1 lsl 30) ~size_s:512 ~size_t:512 ~overlap:200 in
      let outcome =
        run_protocol (Tree_protocol.protocol ~r ()) seed ~universe:(1 lsl 30)
          pair.Workload.Setgen.s pair.Workload.Setgen.t
      in
      total := !total + outcome.Protocol.cost.Commsim.Cost.total_bits
    done;
    !total / 10
  in
  let b1 = avg_bits 1 and b3 = avg_bits 3 in
  check_bool (Printf.sprintf "r=3 (%d bits) cheaper than r=1 (%d bits)" b3 b1) true (b3 < b1)

(* The paper's worst-case conversion: both parties abandon the tree for the
   deterministic exchange once [budget_factor * k * log^(r) k] bits are
   spent. *)
let tree_budgeted ~budget_factor ~r ~k =
  let budget = budget_factor * k * Int.max 1 (Iterated_log.ilog r k) in
  {
    Protocol.name = "tree-budgeted";
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> Tree_protocol.run_party ~budget `Alice rng ~universe ~r ~k chan s)
            ~bob:(fun chan -> Tree_protocol.run_party ~budget `Bob rng ~universe ~r ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }

let test_tree_budgeted () =
  let pair = gen_pair 18 ~universe:(1 lsl 30) ~size_s:256 ~size_t:256 ~overlap:64 in
  let run protocol = run_protocol protocol 18 ~universe:(1 lsl 30) pair.Workload.Setgen.s pair.Workload.Setgen.t in
  (* a generous budget never trips: identical run to the plain protocol *)
  let plain = run (Tree_protocol.protocol ~r:2 ~k:256 ()) in
  let generous = run (tree_budgeted ~budget_factor:1000 ~r:2 ~k:256) in
  check "same bits" plain.Protocol.cost.Commsim.Cost.total_bits
    generous.Protocol.cost.Commsim.Cost.total_bits;
  check_bool "exact" true (Protocol.exact generous ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t);
  (* a starvation budget forces the deterministic fallback: still exact,
     bounded by budget + one stage + the trivial exchange *)
  let starved = run (tree_budgeted ~budget_factor:1 ~r:2 ~k:256) in
  check_bool "fallback exact" true
    (Protocol.exact starved ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t);
  (* the fallback fired (cost profile differs from the uninterrupted run)
     and stays within budget-overshoot + one stage + the trivial exchange *)
  check_bool "fallback fired" true
    (starved.Protocol.cost.Commsim.Cost.total_bits <> plain.Protocol.cost.Commsim.Cost.total_bits);
  let trivial_bound =
    Bitio.Set_codec.gaps_cost pair.Workload.Setgen.s
    + Bitio.Set_codec.gaps_cost (Iset.inter pair.Workload.Setgen.s pair.Workload.Setgen.t)
  in
  check_bool "worst case bounded" true
    (starved.Protocol.cost.Commsim.Cost.total_bits
    <= plain.Protocol.cost.Commsim.Cost.total_bits + trivial_bound)

let prop_tree_sandwich =
  QCheck.Test.make ~name:"tree protocol sandwich invariant" ~count:60
    QCheck.(triple small_signed_int (list (int_bound 300)) (list (int_bound 300)))
    (fun (seed, ls, lt) ->
      let s = Iset.of_list ls and t = Iset.of_list lt in
      let outcome = run_protocol (Tree_protocol.protocol ~r:2 ()) seed ~universe:301 s t in
      Protocol.For_testing.sandwich_holds outcome ~s ~t)

(* ---------- Verified wrapper ---------- *)

let test_verified_exact () =
  (* Wrap a deliberately sloppy base (tiny tags fail often); verification
     must still deliver exact results. *)
  let sloppy = Basic_intersection.protocol ~failure:0.5 in
  let failures = ref 0 in
  let attempts_total = ref 0 in
  for seed = 1 to 100 do
    let pair = gen_pair (600 + seed) ~universe:100000 ~size_s:40 ~size_t:40 ~overlap:10 in
    let result =
      Verified.run sloppy ~bits:64 ~max_attempts:50
        (Prng.Rng.with_label (Prng.Rng.of_int seed) "ver")
        ~universe:100000 pair.Workload.Setgen.s pair.Workload.Setgen.t
    in
    attempts_total := !attempts_total + result.Verified.attempts;
    check_bool "verified flag" true result.Verified.verified;
    if not (Protocol.exact result.Verified.outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t)
    then incr failures
  done;
  check "always exact" 0 !failures;
  (* some attempts needed more than one run, none should need many *)
  check_bool "expected O(1) attempts" true (!attempts_total < 300)

let test_verified_cost_accumulates () =
  let pair = gen_pair 17 ~universe:10000 ~size_s:20 ~size_t:20 ~overlap:8 in
  let base = Basic_intersection.protocol ~failure:0.01 in
  let result =
    Verified.run base ~bits:32 ~max_attempts:5
      (Prng.Rng.of_int 17)
      ~universe:10000 pair.Workload.Setgen.s pair.Workload.Setgen.t
  in
  let base_outcome =
    run_protocol base 17 ~universe:10000 pair.Workload.Setgen.s pair.Workload.Setgen.t
  in
  check_bool "cost includes verification"
    true
    (result.Verified.outcome.Protocol.cost.Commsim.Cost.total_bits
    > base_outcome.Protocol.cost.Commsim.Cost.total_bits)

let test_verified_rejects_non_sandwich () =
  let bogus = { Protocol.name = "bogus"; sandwich = false; run = Trivial.protocol.Protocol.run } in
  Alcotest.check_raises "needs sandwich"
    (Invalid_argument "Verified.run: base protocol lacks the sandwich contract") (fun () ->
      ignore (Verified.run bogus ~bits:8 ~max_attempts:1 (Prng.Rng.of_int 1) ~universe:10 [||] [||]))

let test_verified_protocol_wrapper () =
  let protocol = Verified.protocol (Tree_protocol.protocol ~r:2 ()) in
  let failures = failure_count protocol ~trials:30 ~universe:100000 ~size:50 ~overlap:17 in
  check "exact" 0 failures

(* ---------- Disjointness ---------- *)

let test_disjointness_hw_disjoint () =
  for seed = 1 to 30 do
    let rng = Prng.Rng.of_int (700 + seed) in
    let pair =
      Workload.Setgen.pair_with_overlap rng ~universe:100000 ~size_s:24 ~size_t:24 ~overlap:0
    in
    let outcome =
      Disjointness.hw (Prng.Rng.of_int seed) ~universe:100000 pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    check_bool "disjoint detected" true outcome.Disjointness.disjoint
  done

let test_disjointness_hw_intersecting () =
  for seed = 1 to 30 do
    let rng = Prng.Rng.of_int (800 + seed) in
    let pair =
      Workload.Setgen.pair_with_overlap rng ~universe:100000 ~size_s:24 ~size_t:24 ~overlap:1
    in
    let outcome =
      Disjointness.hw (Prng.Rng.of_int seed) ~universe:100000 pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    (* one-sided: intersecting inputs can never be declared disjoint *)
    check_bool "never declared disjoint" false outcome.Disjointness.disjoint
  done

let test_disjointness_empty_input () =
  let outcome = Disjointness.hw (Prng.Rng.of_int 3) ~universe:100 Iset.empty [| 1; 2 |] in
  check_bool "empty set is disjoint" true outcome.Disjointness.disjoint

let test_disjointness_via_intersection () =
  let protocol = Tree_protocol.protocol ~r:2 () in
  let outcome =
    Disjointness.via_intersection protocol (Prng.Rng.of_int 4) ~universe:1000 [| 1; 5; 9 |]
      [| 2; 6; 10 |]
  in
  check_bool "disjoint" true outcome.Disjointness.disjoint;
  let outcome =
    Disjointness.via_intersection protocol (Prng.Rng.of_int 5) ~universe:1000 [| 1; 5; 9 |]
      [| 2; 5; 10 |]
  in
  check_bool "intersecting" false outcome.Disjointness.disjoint

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "core-protocols"
    [
      ( "trivial",
        [
          Alcotest.test_case "exact" `Quick test_trivial_exact;
          Alcotest.test_case "cost matches encoding" `Quick test_trivial_cost_matches_encoding;
          Alcotest.test_case "full exchange one round" `Quick test_trivial_full_exchange_one_round;
          Alcotest.test_case "rejects bad inputs" `Quick test_trivial_rejects_bad_inputs;
        ] );
      ( "one_round_hash",
        [
          Alcotest.test_case "exact whp" `Quick test_one_round_exact_whp;
          Alcotest.test_case "simultaneous round" `Quick test_one_round_simultaneous;
          Alcotest.test_case "k log k scaling" `Quick test_one_round_cost_scales_klogk;
          qt prop_one_round_sandwich;
        ] );
      ( "bucket_protocol",
        [
          Alcotest.test_case "exact whp" `Quick test_bucket_exact_whp;
          Alcotest.test_case "small universe" `Quick test_bucket_identity_small_universe;
          Alcotest.test_case "large universe" `Quick test_bucket_large_universe;
          Alcotest.test_case "edge cases" `Quick test_bucket_edge_cases;
          Alcotest.test_case "equal sets" `Quick test_bucket_equal_sets;
          Alcotest.test_case "rounds sublinear" `Quick test_bucket_rounds_grow_sublinearly;
        ] );
      ( "tree_protocol",
        [
          Alcotest.test_case "exact whp r=1..4" `Quick test_tree_exact_whp;
          Alcotest.test_case "log* config exact" `Quick test_tree_log_star_exact;
          Alcotest.test_case "rounds <= 4r" `Quick test_tree_rounds_bound;
          Alcotest.test_case "edge cases" `Quick test_tree_edge_cases;
          Alcotest.test_case "identical sets" `Quick test_tree_identical_sets;
          Alcotest.test_case "disjoint sets" `Quick test_tree_disjoint_sets;
          Alcotest.test_case "asymmetric sizes" `Quick test_tree_asymmetric_sizes;
          Alcotest.test_case "bits decrease with r" `Quick test_tree_communication_decreases_with_r;
          Alcotest.test_case "budgeted worst-case conversion" `Quick test_tree_budgeted;
          qt prop_tree_sandwich;
        ] );
      ( "verified",
        [
          Alcotest.test_case "exact with sloppy base" `Quick test_verified_exact;
          Alcotest.test_case "cost accumulates" `Quick test_verified_cost_accumulates;
          Alcotest.test_case "rejects non-sandwich base" `Quick test_verified_rejects_non_sandwich;
          Alcotest.test_case "protocol wrapper" `Quick test_verified_protocol_wrapper;
        ] );
      ( "disjointness",
        [
          Alcotest.test_case "hw disjoint" `Quick test_disjointness_hw_disjoint;
          Alcotest.test_case "hw intersecting (one-sided)" `Quick test_disjointness_hw_intersecting;
          Alcotest.test_case "empty input" `Quick test_disjointness_empty_input;
          Alcotest.test_case "via intersection" `Quick test_disjointness_via_intersection;
        ] );
    ]
