(* Tests for the extension layer: message traces, the private-coin
   compilation, the entropy-coded baseline, sketches, incremental sync,
   scenarios, transport tampering and broadcast. *)

open Intersect

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let iset = Alcotest.testable (fun ppf s -> Iset.pp ppf s) Iset.equal

let bits_of_int ~width v =
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width v;
  Bitio.Bitbuf.contents buf

(* ---------- Network traces ---------- *)

(* [f]'s result and the message events a fresh collector saw while it
   ran: an execution's one message record. *)
let traced f =
  let collector = Obsv.Trace.create () in
  let result = Obsv.Trace.with_collector collector f in
  (result, Obsv.Trace.messages collector)

let sum_bits trace = List.fold_left (fun acc (e : Obsv.Trace.message) -> acc + e.bits) 0 trace
let max_depth trace = List.fold_left (fun acc (e : Obsv.Trace.message) -> max acc e.depth) 0 trace

let test_trace_invariants () =
  let alice ep =
    let chan = Commsim.Chan.of_endpoint ep ~peer:1 in
    chan.Commsim.Chan.send (bits_of_int ~width:10 1);
    ignore (chan.Commsim.Chan.recv ());
    chan.Commsim.Chan.send (bits_of_int ~width:4 2)
  in
  let bob ep =
    let chan = Commsim.Chan.of_endpoint ep ~peer:0 in
    ignore (chan.Commsim.Chan.recv ());
    chan.Commsim.Chan.send (bits_of_int ~width:6 3);
    ignore (chan.Commsim.Chan.recv ())
  in
  let (_, cost), trace = traced (fun () -> Commsim.Network.run [| alice; bob |]) in
  check "one event per message" cost.Commsim.Cost.messages (List.length trace);
  check "bits add up" cost.Commsim.Cost.total_bits (sum_bits trace);
  check "max depth = rounds" cost.Commsim.Cost.rounds (max_depth trace);
  (* trace is in send order with correct endpoints *)
  match trace with
  | [ m1; m2; m3 ] ->
      check "m1 from" 0 m1.Obsv.Trace.from_;
      check "m1 to" 1 m1.Obsv.Trace.to_;
      check "m1 depth" 1 m1.Obsv.Trace.depth;
      check "m2 from" 1 m2.Obsv.Trace.from_;
      check "m2 to" 0 m2.Obsv.Trace.to_;
      check "m2 depth" 2 m2.Obsv.Trace.depth;
      check "m3 depth" 3 m3.Obsv.Trace.depth;
      check_bool "sequence numbers rise" true
        (m1.Obsv.Trace.seq < m2.Obsv.Trace.seq && m2.Obsv.Trace.seq < m3.Obsv.Trace.seq)
  | _ -> Alcotest.fail "expected 3 messages"

let test_trace_of_protocol () =
  (* The trace of a real protocol satisfies the same invariants. *)
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 5) ~universe:10000 ~size_s:50 ~size_t:50
      ~overlap:20
  in
  let rng = Prng.Rng.of_int 6 in
  let (results, cost), trace =
    traced (fun () ->
        Commsim.Network.run
          [|
            (fun ep ->
              Tree_protocol.run_party `Alice rng ~universe:10000 ~r:3 ~k:50
                (Commsim.Chan.of_endpoint ep ~peer:1)
                pair.Workload.Setgen.s);
            (fun ep ->
              Tree_protocol.run_party `Bob rng ~universe:10000 ~r:3 ~k:50
                (Commsim.Chan.of_endpoint ep ~peer:0)
                pair.Workload.Setgen.t);
          |])
  in
  Alcotest.check iset "exact"
    (Iset.inter pair.Workload.Setgen.s pair.Workload.Setgen.t)
    results.(0);
  check "events = messages" cost.Commsim.Cost.messages (List.length trace);
  check "bits sum" cost.Commsim.Cost.total_bits (sum_bits trace);
  check "max depth = rounds" cost.Commsim.Cost.rounds (max_depth trace)

(* The same record over a channel that drops, duplicates and truncates:
   one event per delivered copy (a dropped message has none, a
   duplicated one two), each carrying the bits that crossed the wire.
   Each player alternates a burst of sends with one receive, so a drop
   leaves the rest of the burst to carry the conversation on. *)
let test_faulty_trace () =
  let player ~me ~peer ep =
    for phase = 0 to 7 do
      if phase mod 2 = me then
        for i = 1 to 6 do
          Commsim.Network.send ep ~to_:peer (bits_of_int ~width:(8 + i) i)
        done
      else ignore (Commsim.Network.recv ep ~from_:peer)
    done
  in
  let plan =
    Commsim.Faults.uniform ~seed:17
      { Commsim.Faults.clean_link with drop = 0.2; dup = 0.2; trunc = 0.2 }
  in
  let (outcome, cost, tallies), trace =
    traced (fun () ->
        Commsim.Network.run_faulty ~plan [| player ~me:0 ~peer:1; player ~me:1 ~peer:0 |])
  in
  let total = Commsim.Faults.total tallies in
  check_bool "completed" true
    (match outcome with Commsim.Network.Completed _ -> true | Lost _ | Crashed _ -> false);
  check_bool "the channel dropped, duplicated and truncated" true
    (total.Commsim.Faults.dropped_messages > 0
    && total.Commsim.Faults.duplicated_messages > 0
    && total.Commsim.Faults.truncated_messages > 0);
  check "one event per delivered copy" total.Commsim.Faults.deliveries (List.length trace);
  check "events = messages" cost.Commsim.Cost.messages (List.length trace);
  check "bits sum" cost.Commsim.Cost.total_bits (sum_bits trace);
  check "max depth = rounds" cost.Commsim.Cost.rounds (max_depth trace)

let test_trace_of_multiparty_star () =
  (* trace invariants must hold for a full m-player execution too *)
  let sets =
    Workload.Setgen.family_with_core (Prng.Rng.of_int 95) ~universe:100000 ~players:6 ~size:16
      ~core:5
  in
  let rng = Prng.Rng.of_int 96 in
  let _, cost = Multiparty.Star.run rng ~universe:100000 ~k:16 sets in
  check_bool "messages counted" true (cost.Commsim.Cost.messages > 0);
  (* per-player conservation: every sent bit is someone's sent_bits *)
  let sent =
    Array.fold_left (fun acc p -> acc + p.Commsim.Cost.sent_bits) 0 cost.Commsim.Cost.players
  in
  check "sent bits = total bits" cost.Commsim.Cost.total_bits sent;
  (* received <= sent (some trailing messages may go unread) *)
  let received =
    Array.fold_left (fun acc p -> acc + p.Commsim.Cost.received_bits) 0 cost.Commsim.Cost.players
  in
  check_bool "received <= sent" true (received <= sent)

(* ---------- Private coin ---------- *)

let test_private_coin_exact () =
  let failures = ref 0 in
  for seed = 1 to 40 do
    let pair =
      Workload.Setgen.pair_with_overlap (Prng.Rng.of_int (900 + seed)) ~universe:1_000_000
        ~size_s:64 ~size_t:64 ~overlap:20
    in
    let protocol = Private_coin.protocol (Tree_protocol.protocol ~r:3 ~k:64 ()) in
    let outcome =
      protocol.Protocol.run (Prng.Rng.of_int seed) ~universe:1_000_000 pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    if not (Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t) then
      incr failures
  done;
  if !failures > 2 then Alcotest.failf "failures: %d/40" !failures

let test_private_coin_seed_cost () =
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 3) ~universe:(1 lsl 40) ~size_s:32
      ~size_t:32 ~overlap:8
  in
  let base = Tree_protocol.protocol ~r:2 ~k:32 () in
  let wrapped = Private_coin.protocol base in
  let outcome_b = base.Protocol.run (Prng.Rng.of_int 4) ~universe:(1 lsl 40) pair.Workload.Setgen.s pair.Workload.Setgen.t in
  let outcome_w =
    wrapped.Protocol.run (Prng.Rng.of_int 4) ~universe:(1 lsl 40) pair.Workload.Setgen.s
      pair.Workload.Setgen.t
  in
  let seed = Private_coin.seed_bits ~universe:(1 lsl 40) ~k:32 in
  check_bool "seed bits small" true (seed < 64);
  (* the wrapper's extra cost is roughly the seed (base costs vary with the
     different randomness, so compare loosely) *)
  check_bool "extra cost bounded" true
    (outcome_w.Protocol.cost.Commsim.Cost.total_bits
    < (2 * outcome_b.Protocol.cost.Commsim.Cost.total_bits) + (2 * seed));
  check_bool "rounds +1" true
    (outcome_w.Protocol.cost.Commsim.Cost.rounds
    <= outcome_b.Protocol.cost.Commsim.Cost.rounds + 1 + 2)

let test_private_coin_seed_bits_growth () =
  (* O(log k + log log n): doubling n twice only nudges the cost. *)
  let b1 = Private_coin.seed_bits ~universe:(1 lsl 16) ~k:1024 in
  let b2 = Private_coin.seed_bits ~universe:(1 lsl 58) ~k:1024 in
  check_bool "log log n growth" true (b2 - b1 <= 3);
  let b3 = Private_coin.seed_bits ~universe:(1 lsl 16) ~k:(1024 * 1024) in
  check_bool "log k growth" true (b3 - b1 = 10)

(* ---------- Entropy-coded trivial ---------- *)

let test_entropy_protocol_exact () =
  for seed = 1 to 20 do
    let pair =
      Workload.Setgen.pair_with_overlap (Prng.Rng.of_int (50 + seed)) ~universe:20_000 ~size_s:64
        ~size_t:64 ~overlap:13
    in
    let outcome =
      Trivial.protocol_entropy.Protocol.run (Prng.Rng.of_int seed) ~universe:20_000
        pair.Workload.Setgen.s pair.Workload.Setgen.t
    in
    if not (Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t) then
      Alcotest.failf "seed %d inexact" seed
  done

let test_entropy_beats_gaps_protocol () =
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 9) ~universe:4096 ~size_s:512 ~size_t:512
      ~overlap:100
  in
  let run protocol =
    (protocol.Protocol.run (Prng.Rng.of_int 1) ~universe:4096 pair.Workload.Setgen.s
       pair.Workload.Setgen.t)
      .Protocol.cost
      .Commsim.Cost.total_bits
  in
  let entropy_bits = run Trivial.protocol_entropy in
  let gaps_bits = run Trivial.protocol in
  check_bool
    (Printf.sprintf "entropy %d <= gaps %d" entropy_bits gaps_bits)
    true (entropy_bits <= gaps_bits)

(* ---------- Sketch (bottom-k / min-wise) ---------- *)

let test_sketch_estimates_jaccard () =
  (* J = 1/3 planted; k = 256 samples -> standard error ~ 0.03 *)
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 11) ~universe:(1 lsl 40) ~size_s:2000
      ~size_t:2000 ~overlap:1000
  in
  let (j, inter), cost =
    Apps.Sketch.exchange (Prng.Rng.of_int 12) ~sketch_size:256 pair.Workload.Setgen.s
      pair.Workload.Setgen.t
  in
  if abs_float (j -. (1.0 /. 3.0)) > 0.12 then Alcotest.failf "jaccard estimate %f" j;
  if abs_float (inter -. 1000.0) > 350.0 then Alcotest.failf "intersection estimate %f" inter;
  check_bool "cheap" true (cost.Commsim.Cost.total_bits < 2 * 256 * 50)

let test_sketch_small_sets_exact () =
  (* sets smaller than the sketch: the estimate should be essentially exact *)
  let s = Iset.of_list (List.init 50 (fun i -> i * 3)) in
  let t = Iset.of_list (List.init 50 (fun i -> i * 3 + (if i < 25 then 0 else 1))) in
  let (j, inter), _ = Apps.Sketch.exchange (Prng.Rng.of_int 13) ~sketch_size:256 s t in
  Alcotest.(check (float 0.01)) "jaccard" (25.0 /. 75.0) j;
  Alcotest.(check (float 1.0)) "intersection" 25.0 inter

let test_sketch_identical_and_disjoint () =
  let s = Iset.of_list (List.init 500 (fun i -> i * 7)) in
  let (j, _), _ = Apps.Sketch.exchange (Prng.Rng.of_int 14) ~sketch_size:64 s s in
  Alcotest.(check (float 1e-9)) "identical" 1.0 j;
  let t = Iset.of_list (List.init 500 (fun i -> (i * 7) + 1)) in
  let (j, inter), _ = Apps.Sketch.exchange (Prng.Rng.of_int 15) ~sketch_size:64 s t in
  Alcotest.(check (float 1e-9)) "disjoint j" 0.0 j;
  Alcotest.(check (float 1e-9)) "disjoint size" 0.0 inter

let test_sketch_roundtrip () =
  let s = Workload.Setgen.random_set (Prng.Rng.of_int 16) ~universe:(1 lsl 30) ~size:300 in
  let sketch = Apps.Sketch.create (Prng.Rng.of_int 17) ~size:64 s in
  check "cardinal" 64 (Apps.Sketch.cardinal sketch);
  let back = Apps.Sketch.decode (Bitio.Bitreader.create (Apps.Sketch.encode sketch)) in
  check "roundtrip cardinal" 64 (Apps.Sketch.cardinal back)

(* ---------- Incremental sync ---------- *)

let inc_state seed =
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int seed) ~universe:100000 ~size_s:80
      ~size_t:80 ~overlap:30
  in
  let alice, bob, cost =
    Apps.Incremental.start (Prng.Rng.of_int (seed + 1)) ~universe:100000 pair.Workload.Setgen.s
      pair.Workload.Setgen.t
  in
  (pair, alice, bob, cost)

let check_inc_consistent alice bob =
  let expected =
    Iset.inter alice.Apps.Incremental.current bob.Apps.Incremental.current
  in
  Alcotest.check iset "alice candidate" expected alice.Apps.Incremental.candidate;
  Alcotest.check iset "bob candidate" expected bob.Apps.Incremental.candidate

let test_incremental_start () =
  let _, alice, bob, _ = inc_state 21 in
  check_inc_consistent alice bob

let test_incremental_sync_batches () =
  let _, alice, bob, _ = inc_state 23 in
  let alice = ref alice and bob = ref bob in
  let rng = Prng.Rng.of_int 24 in
  for batch = 1 to 8 do
    let pick_updates state seed =
      let workload = Prng.Rng.with_label (Prng.Rng.of_int seed) "upd" in
      let current = state.Apps.Incremental.current in
      (* delete a couple of present elements, insert fresh ones *)
      let deletes =
        Iset.of_list
          (List.filteri (fun i _ -> i mod 11 = batch mod 11) (Array.to_list current))
      in
      let inserts =
        let fresh = ref [] in
        while List.length !fresh < 5 do
          let x = Prng.Rng.int workload 100000 in
          if not (Iset.mem current x) then fresh := x :: !fresh
        done;
        Iset.of_list !fresh
      in
      { Apps.Incremental.inserts = Iset.diff inserts current; deletes }
    in
    let alice_update = pick_updates !alice (batch * 100) in
    let bob_update = pick_updates !bob (batch * 100 + 1) in
    let a, b, cost =
      Apps.Incremental.sync rng ~universe:100000 ~batch !alice !bob ~alice_update ~bob_update
    in
    alice := a;
    bob := b;
    check_bool "cost positive" true (cost.Commsim.Cost.total_bits > 0);
    check_inc_consistent !alice !bob
  done

let test_incremental_insert_shared_element () =
  (* Bob inserts an element Alice already has: it must join the candidate. *)
  let universe = 1000 in
  let s = [| 1; 5; 9 |] and t = [| 5; 20 |] in
  let alice, bob, _ = Apps.Incremental.start (Prng.Rng.of_int 31) ~universe s t in
  let a, b, _ =
    Apps.Incremental.sync (Prng.Rng.of_int 32) ~universe ~batch:1 alice bob
      ~alice_update:{ Apps.Incremental.inserts = [||]; deletes = [||] }
      ~bob_update:{ Apps.Incremental.inserts = [| 9 |]; deletes = [||] }
  in
  Alcotest.check iset "alice view" [| 5; 9 |] a.Apps.Incremental.candidate;
  Alcotest.check iset "bob view" [| 5; 9 |] b.Apps.Incremental.candidate;
  (* and a delete removes it again on either side *)
  let a, b, _ =
    Apps.Incremental.sync (Prng.Rng.of_int 33) ~universe ~batch:2 a b
      ~alice_update:{ Apps.Incremental.inserts = [||]; deletes = [| 5 |] }
      ~bob_update:{ Apps.Incremental.inserts = [||]; deletes = [||] }
  in
  Alcotest.check iset "after delete" [| 9 |] a.Apps.Incremental.candidate;
  check_inc_consistent a b

let test_incremental_cost_scales_with_delta () =
  (* syncing a tiny delta must be far cheaper than a fresh run *)
  let pair, alice, bob, start_cost = inc_state 41 in
  ignore pair;
  let fresh x current = not (Iset.mem current x) in
  let insert state x = { Apps.Incremental.inserts = (if fresh x state.Apps.Incremental.current then [| x |] else [||]); deletes = [||] } in
  let _, _, sync_cost =
    Apps.Incremental.sync (Prng.Rng.of_int 42) ~universe:100000 ~batch:1 alice bob
      ~alice_update:(insert alice 99_999) ~bob_update:(insert bob 99_998)
  in
  check_bool
    (Printf.sprintf "sync %d << start %d" sync_cost.Commsim.Cost.total_bits
       start_cost.Commsim.Cost.total_bits)
    true
    (sync_cost.Commsim.Cost.total_bits * 5 < start_cost.Commsim.Cost.total_bits)

let test_incremental_validation () =
  let alice, bob, _ = Apps.Incremental.start (Prng.Rng.of_int 51) ~universe:100 [| 1 |] [| 1 |] in
  Alcotest.check_raises "insert present" (Invalid_argument "Incremental.sync: inserting present elements")
    (fun () ->
      ignore
        (Apps.Incremental.sync (Prng.Rng.of_int 52) ~universe:100 ~batch:1 alice bob
           ~alice_update:{ Apps.Incremental.inserts = [| 1 |]; deletes = [||] }
           ~bob_update:{ Apps.Incremental.inserts = [||]; deletes = [||] }))

(* ---------- Tamper ---------- *)

(* Message-level fault injection on the sending side of a transport:
   [flip_bit index length] picks the bit to corrupt in outgoing message
   [index] (or [None]); [drop_nth] silently discards that message. *)
let tamper ?(flip_bit = fun _ _ -> None) ?drop_nth (chan : Commsim.Transport.t) =
  let sent = ref 0 in
  Commsim.Transport.make ~recv:chan.recv ~send:(fun payload ->
      let index = !sent in
      incr sent;
      if Some index <> drop_nth then
        chan.send
          (match flip_bit index (Bitio.Bits.length payload) with
          | Some bit -> Bits_ref.flip payload bit
          | None -> payload))

let test_tamper_equality_catches_corruption () =
  (* Flipping any tag bit must turn an equal-inputs equality test negative:
     the test is one-sided in the safe direction even under corruption. *)
  let payload = Bitio.Bits.of_string "identical-inputs" in
  for bit = 0 to 19 do
    let shared = Prng.Rng.with_label (Prng.Rng.of_int bit) "t" in
    let (verdict_a, verdict_b), _ =
      Commsim.Two_party.run
        ~alice:(fun chan ->
          let chan =
            tamper ~flip_bit:(fun index _ -> if index = 0 then Some bit else None) chan
          in
          Equality.run_alice shared ~bits:20 chan payload)
        ~bob:(fun chan -> Equality.run_bob shared ~bits:20 chan payload)
    in
    check_bool "corrupted tag rejected" false verdict_a;
    check_bool "verdicts agree" true (verdict_a = verdict_b)
  done

let test_tamper_drop_deadlocks () =
  (* A dropped message must surface as a deadlock, not silent corruption. *)
  let attempt () =
    Commsim.Two_party.run
      ~alice:(fun chan ->
        let chan = tamper ~drop_nth:0 chan in
        chan.Commsim.Chan.send (Bitio.Bits.of_bools [ true ]);
        chan.Commsim.Chan.recv ())
      ~bob:(fun chan ->
        let payload = chan.Commsim.Chan.recv () in
        chan.Commsim.Chan.send payload;
        ())
  in
  match attempt () with
  | exception Commsim.Network.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected deadlock"

(* ---------- Scenarios ---------- *)

let test_scenarios_shingles () =
  let a = Workload.Scenarios.shingles ~w:2 ~universe_bits:30 "the cat sat on the mat" in
  let b = Workload.Scenarios.shingles ~w:2 ~universe_bits:30 "the cat sat on the hat" in
  (* 5 shingles each; "the cat", "cat sat", "sat on", "on the" shared *)
  check "a size" 5 (Iset.cardinal a);
  check "shared" 4 (Iset.cardinal (Iset.inter a b));
  (* deterministic public embedding: same text, same set *)
  Alcotest.check iset "deterministic" a
    (Workload.Scenarios.shingles ~w:2 ~universe_bits:30 "the cat sat on the mat")

(* ---------- Sketch error scaling ---------- *)

let test_sketch_error_shrinks_with_size () =
  (* mean |error| over trials should improve markedly from size 32 to 512 *)
  let mean_err sketch_size =
    let total = ref 0.0 in
    let trials = 15 in
    for seed = 1 to trials do
      let pair =
        Workload.Setgen.pair_with_overlap
          (Prng.Rng.of_int (7000 + seed))
          ~universe:(1 lsl 40) ~size_s:3000 ~size_t:3000 ~overlap:1000
      in
      let (j, _), _ =
        Apps.Sketch.exchange (Prng.Rng.of_int seed) ~sketch_size pair.Workload.Setgen.s
          pair.Workload.Setgen.t
      in
      total := !total +. abs_float (j -. 0.2)
    done;
    !total /. 15.0
  in
  let coarse = mean_err 32 and fine = mean_err 512 in
  check_bool (Printf.sprintf "err %.4f -> %.4f" coarse fine) true (fine < coarse)

(* ---------- Broadcast / run_all ---------- *)

let test_star_run_all () =
  let sets =
    Workload.Setgen.family_with_core (Prng.Rng.of_int 71) ~universe:100000 ~players:7 ~size:24
      ~core:9
  in
  let results, cost = Multiparty.Star.For_testing.run_all (Prng.Rng.of_int 72) ~universe:100000 ~k:24 sets in
  let expected = Iset.inter_many (Array.to_list sets) in
  Array.iteri
    (fun rank result ->
      Alcotest.check iset (Printf.sprintf "player %d" rank) expected result)
    results;
  (* broadcast adds m-1 = 6 extra messages beyond the non-broadcast run *)
  let _, base_cost = Multiparty.Star.run (Prng.Rng.of_int 72) ~universe:100000 ~k:24 sets in
  check "extra messages" 6 (cost.Commsim.Cost.messages - base_cost.Commsim.Cost.messages)

let test_star_run_all_single () =
  let results, _ = Multiparty.Star.For_testing.run_all (Prng.Rng.of_int 73) ~universe:100 ~k:2 [| [| 1 |] |] in
  Alcotest.check iset "single" [| 1 |] results.(0)

let test_tournament_run_all () =
  let sets =
    Workload.Setgen.family_with_core (Prng.Rng.of_int 81) ~universe:100000 ~players:10 ~size:20
      ~core:6
  in
  let results, _ =
    Multiparty.Tournament.For_testing.run_all (Prng.Rng.of_int 82) ~universe:100000 ~k:20 sets
  in
  let expected = Iset.inter_many (Array.to_list sets) in
  Array.iteri
    (fun rank result ->
      Alcotest.check iset (Printf.sprintf "player %d" rank) expected result)
    results

let () =
  Alcotest.run "extensions"
    [
      ( "trace",
        [
          Alcotest.test_case "invariants" `Quick test_trace_invariants;
          Alcotest.test_case "protocol trace" `Quick test_trace_of_protocol;
          Alcotest.test_case "faulty trace" `Quick test_faulty_trace;
          Alcotest.test_case "multiparty conservation" `Quick test_trace_of_multiparty_star;
        ] );
      ( "private_coin",
        [
          Alcotest.test_case "exact" `Quick test_private_coin_exact;
          Alcotest.test_case "seed cost" `Quick test_private_coin_seed_cost;
          Alcotest.test_case "seed bits growth" `Quick test_private_coin_seed_bits_growth;
        ] );
      ( "entropy_trivial",
        [
          Alcotest.test_case "exact" `Quick test_entropy_protocol_exact;
          Alcotest.test_case "beats gaps" `Quick test_entropy_beats_gaps_protocol;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "estimates jaccard" `Quick test_sketch_estimates_jaccard;
          Alcotest.test_case "small sets exact" `Quick test_sketch_small_sets_exact;
          Alcotest.test_case "identical and disjoint" `Quick test_sketch_identical_and_disjoint;
          Alcotest.test_case "roundtrip" `Quick test_sketch_roundtrip;
          Alcotest.test_case "error shrinks with size" `Quick test_sketch_error_shrinks_with_size;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "shingles" `Quick test_scenarios_shingles;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "start" `Quick test_incremental_start;
          Alcotest.test_case "sync batches" `Quick test_incremental_sync_batches;
          Alcotest.test_case "insert shared element" `Quick test_incremental_insert_shared_element;
          Alcotest.test_case "cost scales with delta" `Quick test_incremental_cost_scales_with_delta;
          Alcotest.test_case "validation" `Quick test_incremental_validation;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "equality catches corruption" `Quick test_tamper_equality_catches_corruption;
          Alcotest.test_case "drop deadlocks" `Quick test_tamper_drop_deadlocks;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "star run_all" `Quick test_star_run_all;
          Alcotest.test_case "single player" `Quick test_star_run_all_single;
          Alcotest.test_case "tournament run_all" `Quick test_tournament_run_all;
        ] );
    ]
