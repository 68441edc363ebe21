(* Cross-cutting integration tests: determinism (same seed, same run),
   the agreement-implies-exactness consequence of the sandwich contract
   (Corollary 3.4 / Proposition 3.9), and golden cost regressions. *)

open Intersect

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let iset = Alcotest.testable (fun ppf s -> Iset.pp ppf s) Iset.equal

let protocols_under_test k =
  [
    Trivial.protocol;
    One_round_hash.protocol ();
    Basic_intersection.protocol ~failure:0.01;
    Bucket_protocol.protocol ~k ();
    Tree_protocol.protocol ~r:2 ~k ();
    Tree_protocol.protocol ~r:4 ~k ();
    Tree_protocol.protocol_log_star ~k ();
    Verified.protocol (Tree_protocol.protocol ~r:2 ~k ());
    Private_coin.protocol (Tree_protocol.protocol ~r:2 ~k ());
  ]

let test_protocols_deterministic () =
  let k = 48 in
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 77) ~universe:100000 ~size_s:k ~size_t:k
      ~overlap:17
  in
  List.iter
    (fun protocol ->
      let run () =
        protocol.Protocol.run (Prng.Rng.of_int 123) ~universe:100000 pair.Workload.Setgen.s
          pair.Workload.Setgen.t
      in
      let a = run () and b = run () in
      Alcotest.check iset (protocol.Protocol.name ^ " alice") a.Protocol.alice b.Protocol.alice;
      Alcotest.check iset (protocol.Protocol.name ^ " bob") a.Protocol.bob b.Protocol.bob;
      check (protocol.Protocol.name ^ " bits") a.Protocol.cost.Commsim.Cost.total_bits
        b.Protocol.cost.Commsim.Cost.total_bits;
      check (protocol.Protocol.name ^ " rounds") a.Protocol.cost.Commsim.Cost.rounds
        b.Protocol.cost.Commsim.Cost.rounds)
    (protocols_under_test k)

let test_multiparty_deterministic () =
  let sets =
    Workload.Setgen.family_with_core (Prng.Rng.of_int 5) ~universe:100000 ~players:6 ~size:24
      ~core:6
  in
  let star () = Multiparty.Star.run (Prng.Rng.of_int 9) ~universe:100000 ~k:24 sets in
  let r1, c1 = star () and r2, c2 = star () in
  Alcotest.check iset "star result" r1 r2;
  check "star bits" c1.Commsim.Cost.total_bits c2.Commsim.Cost.total_bits;
  let tour () = Multiparty.Tournament.run (Prng.Rng.of_int 9) ~universe:100000 ~k:24 sets in
  let t1, d1 = tour () and t2, d2 = tour () in
  Alcotest.check iset "tournament result" t1 t2;
  check "tournament bits" d1.Commsim.Cost.total_bits d2.Commsim.Cost.total_bits

(* Corollary 3.4 / Proposition 3.9: for sandwich protocols, whenever the
   two candidate outputs agree they are exactly the intersection — even
   when the protocol is run far below its nominal confidence. *)
let test_agreement_implies_exact () =
  let sloppy =
    [
      Basic_intersection.protocol ~failure:0.49;
      One_round_hash.protocol ~confidence:1 ();
      Tree_protocol.protocol ~flat_eq_bits:2 ~r:2 ();
    ]
  in
  let agreements = ref 0 in
  for seed = 1 to 150 do
    let pair =
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.of_int (3000 + seed))
        ~universe:5000 ~size_s:25 ~size_t:25 ~overlap:8
    in
    List.iter
      (fun protocol ->
        let outcome =
          protocol.Protocol.run (Prng.Rng.of_int seed) ~universe:5000 pair.Workload.Setgen.s
            pair.Workload.Setgen.t
        in
        check_bool "sandwich" true
          (Protocol.For_testing.sandwich_holds outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t);
        if Iset.equal outcome.Protocol.alice outcome.Protocol.bob then begin
          incr agreements;
          check_bool "agreement implies exact" true
            (Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t)
        end)
      sloppy
  done;
  (* the test is vacuous if nothing ever agreed *)
  check_bool "some runs agreed" true (!agreements > 50)

(* Golden numbers: exact costs for pinned seeds.  These protect the cost
   accounting (codec widths, batching, round structure) from silent
   regressions; update deliberately when the wire format changes. *)
let golden_cost protocol ~universe ~k ~overlap ~seed =
  let pair =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.of_int (seed * 31))
      ~universe ~size_s:k ~size_t:k ~overlap
  in
  let outcome =
    protocol.Protocol.run (Prng.Rng.of_int seed) ~universe pair.Workload.Setgen.s
      pair.Workload.Setgen.t
  in
  (outcome.Protocol.cost.Commsim.Cost.total_bits, outcome.Protocol.cost.Commsim.Cost.rounds)

(* The engine's schedule-independence contract, end to end: the soak and
   conformance reports (whole JSON documents, numbers and ordering both)
   must not depend on how many domains ran the trials. *)
let test_soak_domain_independent () =
  let config = { Workload.Soak.smoke with Workload.Soak.trials = 8 } in
  let json domains =
    Stats.Json.to_string_pretty (Workload.Soak.to_json (Workload.Soak.run ~domains config))
  in
  let d1 = json 1 in
  Alcotest.(check string) "2 domains" d1 (json 2);
  Alcotest.(check string) "4 domains" d1 (json 4)

let test_conform_domain_independent () =
  let config = { Workload.Conform.smoke with Workload.Conform.trials = 8 } in
  let json domains =
    Stats.Json.to_string_pretty (Workload.Conform.to_json (Workload.Conform.run ~domains config))
  in
  let d1 = json 1 in
  Alcotest.(check string) "2 domains" d1 (json 2);
  Alcotest.(check string) "4 domains" d1 (json 4)

(* Obsv exports collected on worker domains merge to the same ledger as a
   sequential run: trace collection is domain-local, so per-trial
   collectors never interleave. *)
let test_obsv_merge_domain_independent () =
  let k = 32 in
  let universe = 1 lsl 16 in
  let protocol = Bucket_protocol.protocol ~k () in
  let stream = Engine.Seed_stream.create ~base:99 ~label:"det/obsv" in
  let ledgers domains =
    Engine.Pool.map ~domains ~trials:6 (fun i ->
        let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
        let pair =
          Workload.Setgen.pair_with_overlap
            (Prng.Rng.with_label rng "pair")
            ~universe ~size_s:k ~size_t:k ~overlap:(k / 2)
        in
        let collector = Obsv.Trace.create () in
        Obsv.Trace.with_collector collector (fun () ->
            ignore
              (protocol.Protocol.run
                 (Prng.Rng.with_label rng "run")
                 ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t));
        Obsv.Export.phases collector)
    |> Array.to_list |> Obsv.Export.merge_phases |> Obsv.Export.phases_json_of
    |> Stats.Json.to_string_pretty
  in
  let d1 = ledgers 1 in
  Alcotest.(check string) "2 domains" d1 (ledgers 2);
  Alcotest.(check string) "4 domains" d1 (ledgers 4)

let test_golden_costs () =
  let cases =
    [
      ("trivial", Trivial.protocol, (6906, 2));
      ("one-round", One_round_hash.protocol (), (16418, 1));
      ("tree r=2", Tree_protocol.protocol ~r:2 ~k:256 (), (12844, 6));
      ("tree r=4", Tree_protocol.protocol ~r:4 ~k:256 (), (9602, 12));
      ("bucket", Bucket_protocol.protocol ~k:256 (), (6236, 180));
    ]
  in
  List.iter
    (fun (name, protocol, expected) ->
      let got = golden_cost protocol ~universe:(1 lsl 20) ~k:256 ~overlap:128 ~seed:2014 in
      Alcotest.(check (pair int int)) name expected got)
    cases

let () =
  Alcotest.run "determinism"
    [
      ( "determinism",
        [
          Alcotest.test_case "two-party protocols" `Quick test_protocols_deterministic;
          Alcotest.test_case "multi-party protocols" `Quick test_multiparty_deterministic;
          Alcotest.test_case "soak domain-independent" `Quick test_soak_domain_independent;
          Alcotest.test_case "conform domain-independent" `Quick test_conform_domain_independent;
          Alcotest.test_case "obsv merge domain-independent" `Quick
            test_obsv_merge_domain_independent;
        ] );
      ( "corollary-3.4",
        [ Alcotest.test_case "agreement implies exact" `Quick test_agreement_implies_exact ] );
      ("golden", [ Alcotest.test_case "pinned costs" `Quick test_golden_costs ]);
    ]
