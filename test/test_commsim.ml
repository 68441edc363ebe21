(* Tests for the communication simulator: scheduling, metering and the
   round (dependency-chain) accounting. *)

open Commsim

let bits_of_int ~width v =
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width v;
  Bitio.Bitbuf.contents buf

let int_of_bits ~width payload =
  Bitio.Bitreader.read_bits (Bitio.Bitreader.create payload) ~width

let check = Alcotest.(check int)

(* ---------- Two-party ---------- *)

let test_ping_pong () =
  let alice chan =
    chan.Chan.send (bits_of_int ~width:8 42);
    int_of_bits ~width:8 (chan.Chan.recv ())
  in
  let bob chan =
    let v = int_of_bits ~width:8 (chan.Chan.recv ()) in
    chan.Chan.send (bits_of_int ~width:8 (v + 1));
    v
  in
  let (a, b), cost = Two_party.run ~alice ~bob in
  check "alice result" 43 a;
  check "bob result" 42 b;
  check "total bits" 16 cost.Cost.total_bits;
  check "messages" 2 cost.Cost.messages;
  check "rounds" 2 cost.Cost.rounds;
  check "alice sent" 8 cost.Cost.players.(0).Cost.sent_bits;
  check "bob sent" 8 cost.Cost.players.(1).Cost.sent_bits

let test_batched_sends_share_round () =
  (* Two messages in the same direction with no intervening dependency are
     one round: they could travel as a single message. *)
  let alice chan =
    chan.Chan.send (bits_of_int ~width:4 1);
    chan.Chan.send (bits_of_int ~width:4 2);
    chan.Chan.recv () |> ignore
  in
  let bob chan =
    ignore (chan.Chan.recv ());
    ignore (chan.Chan.recv ());
    chan.Chan.send (bits_of_int ~width:4 3)
  in
  let _, cost = Two_party.run ~alice ~bob in
  check "messages" 3 cost.Cost.messages;
  check "rounds" 2 cost.Cost.rounds

let test_alternation_rounds () =
  let rec volley chan n =
    if n > 0 then begin
      chan.Chan.send (bits_of_int ~width:1 1);
      ignore (chan.Chan.recv ());
      volley chan (n - 1)
    end
  in
  let alice chan = volley chan 5 in
  let bob chan =
    for _ = 1 to 5 do
      ignore (chan.Chan.recv ());
      chan.Chan.send (bits_of_int ~width:1 0)
    done
  in
  let _, cost = Two_party.run ~alice ~bob in
  check "rounds" 10 cost.Cost.rounds;
  check "bits" 10 cost.Cost.total_bits

let test_fifo_order () =
  let alice chan =
    for i = 0 to 9 do
      chan.Chan.send (bits_of_int ~width:8 i)
    done
  in
  let bob chan = List.init 10 (fun _ -> int_of_bits ~width:8 (chan.Chan.recv ())) in
  let (_, received), _ = Two_party.run ~alice ~bob in
  Alcotest.(check (list int)) "in order" (List.init 10 Fun.id) received

let test_deadlock_detected () =
  let party chan () = ignore (chan.Chan.recv ()) in
  match Two_party.run ~alice:(fun c -> party c ()) ~bob:(fun c -> party c ()) with
  | exception Network.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_no_result_loss_on_unreceived_messages () =
  (* A message nobody reads is legal (it was still paid for). *)
  let alice chan = chan.Chan.send (bits_of_int ~width:8 9) in
  let bob _chan = 7 in
  let ((), b), cost = Two_party.run ~alice ~bob in
  check "bob" 7 b;
  check "bits still counted" 8 cost.Cost.total_bits

let test_information_barrier () =
  (* Bob's view is exactly his input + received payloads; check that a
     protocol computing with Alice's data must pay for it. *)
  let secret = 0b1011 in
  let alice chan = chan.Chan.send (bits_of_int ~width:4 secret) in
  let bob chan = int_of_bits ~width:4 (chan.Chan.recv ()) in
  let ((), got), cost = Two_party.run ~alice ~bob in
  check "bob learned the secret" secret got;
  check "4 bits crossed" 4 cost.Cost.total_bits

(* ---------- Network (m players) ---------- *)

let test_ring_rounds () =
  (* Token passed around a ring of 5: 5 dependent messages = 5 rounds. *)
  let m = 5 in
  let player ep =
    let r = Network.rank ep in
    if r = 0 then begin
      Network.send ep ~to_:1 (bits_of_int ~width:8 1);
      int_of_bits ~width:8 (Network.recv ep ~from_:(m - 1))
    end
    else begin
      let v = int_of_bits ~width:8 (Network.recv ep ~from_:(r - 1)) in
      Network.send ep ~to_:((r + 1) mod m) (bits_of_int ~width:8 (v + 1));
      v
    end
  in
  let results, cost = Network.run (Array.make m player) in
  check "player 0 got the token back" m results.(0);
  check "rounds" m cost.Cost.rounds;
  check "messages" m cost.Cost.messages;
  check "bits" (8 * m) cost.Cost.total_bits

let test_star_parallel_rounds () =
  (* All leaves send to the coordinator concurrently: 1 round regardless of m;
     replies make it 2. *)
  let m = 9 in
  let player ep =
    let r = Network.rank ep in
    if r = 0 then begin
      let total = ref 0 in
      for i = 1 to m - 1 do
        total := !total + int_of_bits ~width:8 (Network.recv ep ~from_:i)
      done;
      for i = 1 to m - 1 do
        Network.send ep ~to_:i (bits_of_int ~width:8 !total)
      done;
      !total
    end
    else begin
      Network.send ep ~to_:0 (bits_of_int ~width:8 r);
      int_of_bits ~width:8 (Network.recv ep ~from_:0)
    end
  in
  let results, cost = Network.run (Array.make m player) in
  let expected = (m - 1) * m / 2 in
  Array.iter (fun v -> check "sum" expected v) results;
  check "rounds" 2 cost.Cost.rounds;
  check "messages" (2 * (m - 1)) cost.Cost.messages

let test_rank_and_size () =
  let player ep =
    Alcotest.(check int) "size" 3 (Network.size ep);
    Network.rank ep
  in
  let results, _ = Network.run (Array.make 3 player) in
  Alcotest.(check (array int)) "ranks" [| 0; 1; 2 |] results

let test_self_send_rejected () =
  let player ep =
    if Network.rank ep = 0 then Network.send ep ~to_:0 (bits_of_int ~width:1 0)
  in
  match Network.run (Array.make 2 player) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid_arg"

let test_out_of_range_rejected () =
  let player ep =
    if Network.rank ep = 0 then Network.send ep ~to_:5 (bits_of_int ~width:1 0)
  in
  match Network.run (Array.make 2 player) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid_arg"

let test_pairwise_fifo_across_interleaving () =
  (* Player 2 sends to 0 and 1 alternately; each destination sees its own
     subsequence in order. *)
  let sender ep =
    for i = 0 to 9 do
      Network.send ep ~to_:(i mod 2) (bits_of_int ~width:8 i)
    done;
    []
  in
  let receiver ep =
    List.init 5 (fun _ -> int_of_bits ~width:8 (Network.recv ep ~from_:2))
  in
  let results, _ = Network.run [| receiver; receiver; sender |] in
  Alcotest.(check (list int)) "evens" [ 0; 2; 4; 6; 8 ] results.(0);
  Alcotest.(check (list int)) "odds" [ 1; 3; 5; 7; 9 ] results.(1)

let test_cost_aggregates () =
  let alice chan =
    chan.Chan.send (bits_of_int ~width:10 1);
    ignore (chan.Chan.recv ())
  in
  let bob chan =
    ignore (chan.Chan.recv ());
    chan.Chan.send (bits_of_int ~width:6 1)
  in
  let _, cost = Two_party.run ~alice ~bob in
  check "max player bits" 16 (Cost.max_player_bits cost);
  Alcotest.(check (float 0.001)) "avg player bits" 8.0 (Cost.avg_player_bits cost)

let test_inbox_ring_wraps () =
  (* Player 1 takes the first of player 0's two messages, then waits on
     player 2 while player 0 sends three more: its inbox from player 0
     fills while the ring has wrapped, and grows from there. *)
  let send ep ~to_ v = Network.send ep ~to_ (bits_of_int ~width:8 v) in
  let value ep ~from_ = int_of_bits ~width:8 (Network.recv ep ~from_) in
  let sender ep =
    List.iter (send ep ~to_:1) [ 0; 1 ];
    ignore (value ep ~from_:2);
    List.iter (send ep ~to_:1) [ 2; 3; 4 ];
    []
  and receiver ep =
    let first = value ep ~from_:0 in
    send ep ~to_:2 0;
    ignore (value ep ~from_:2);
    first :: List.init 4 (fun _ -> value ep ~from_:0)
  and releaser ep =
    ignore (value ep ~from_:1);
    send ep ~to_:0 0;
    send ep ~to_:1 0;
    []
  in
  let results, _ = Network.run [| sender; receiver; releaser |] in
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] results.(1)

(* ---------- Allocation ---------- *)

(* Bytes one two-party run of [round_trips] ping-pongs allocates, over
   [Two_party.run] or, given a [plan], [Two_party.run_faulty]; the
   payload and the party closures are built outside the window. *)
let ping_pong_bytes ?plan round_trips =
  let payload = bits_of_int ~width:8 42 in
  let alice chan =
    for _ = 1 to round_trips do
      chan.Chan.send payload;
      ignore (chan.Chan.recv ())
    done
  and bob chan =
    for _ = 1 to round_trips do
      ignore (chan.Chan.recv ());
      chan.Chan.send payload
    done
  in
  let run () =
    match plan with
    | None -> ignore (Sys.opaque_identity (Two_party.run ~alice ~bob))
    | Some plan -> ignore (Sys.opaque_identity (Two_party.run_faulty ~plan ~alice ~bob))
  in
  let _, w = Obsv.Window.measure run in
  w.Obsv.Window.alloc_bytes

(* A message costs one suspension of its receiver (the continuation and
   the blocked status holding it) and nothing else.  2 000 messages of a
   1 000-round-trip ping-pong, less the same run with none, must read at
   most 64 bytes a message; an effect per send and a closure per wake
   read 400.  The empty run's fixed set-up, which sweep-sized trials pay
   once each, must stay within 2 175 bytes (2 736 with that scheduler).
   A faulty run's channel adds nothing per message while no fault fires:
   the same 64-byte bound holds under [Faults.clean] (a delivery list
   per message read 72) and under a plan with every rate positive but
   too small to fire in 2 000 messages (120 with a float boxed per
   decision). *)
let test_message_allocation () =
  let quiet =
    Faults.uniform ~seed:3 { Faults.flip = 1e-12; trunc = 1e-12; dup = 1e-12; drop = 1e-12 }
  in
  let payload = bits_of_int ~width:8 42 in
  (match
     Two_party.run_faulty ~plan:quiet
       ~alice:(fun chan ->
         for _ = 1 to 1000 do
           chan.Chan.send payload;
           ignore (chan.Chan.recv ())
         done)
       ~bob:(fun chan ->
         for _ = 1 to 1000 do
           ignore (chan.Chan.recv ());
           chan.Chan.send payload
         done)
   with
  | Network.Completed _, _, tallies ->
      let t = Faults.total tallies in
      check "quiet plan: deliveries" 2000 t.Faults.deliveries;
      check "quiet plan: no damage" 0
        (t.Faults.flipped_bits + t.Faults.truncated_messages + t.Faults.duplicated_messages
       + t.Faults.dropped_messages)
  | _ -> Alcotest.fail "quiet plan: the ping-pong did not complete");
  List.iter
    (fun (name, plan) ->
      ignore (ping_pong_bytes ?plan 10);
      let setup = ping_pong_bytes ?plan 0 in
      let per_message = (ping_pong_bytes ?plan 1000 - setup) / 2000 in
      if per_message > 64 then
        Alcotest.failf "%s: %d bytes per message (at most 64)" name per_message;
      if Option.is_none plan && setup > 2175 then
        Alcotest.failf "%d bytes of run set-up (at most 2 175)" setup)
    [ ("run", None); ("run_faulty clean", Some Faults.clean); ("run_faulty quiet", Some quiet) ]

(* ---------- Faulty channels ---------- *)

(* A plan's bad rate raises out of [run_faulty] itself, before any
   player runs: it is the caller's error, not a player crash, although
   the channel treats each message from inside the sender's code. *)
let test_invalid_link_escapes () =
  let plan =
    Faults.For_testing.make ~seed:1 (fun ~from_ ~to_:_ ->
        if from_ = 0 then { Faults.clean_link with flip = 2.0 } else Faults.clean_link)
  in
  let alice chan = chan.Chan.send (bits_of_int ~width:8 1) and bob chan = chan.Chan.recv () in
  match Two_party.run_faulty ~plan ~alice ~bob with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "the rate check" "Faults: flip rate outside [0, 1]" msg
  | _ -> Alcotest.fail "an invalid link did not raise out of run_faulty"

(* ---------- Abandoned players ---------- *)

(* A run that ends with a player blocked in a receive unwinds it: the
   player resumes with [Obsv.Trace.Abandoned], so a [Fun.protect]
   around its receive finalises exactly once, and the outcome, cost and
   diagnosis read as if it had been dropped.  [guarded unwound seen f]
   counts [f]'s exits in [unwound] and keeps the exception it unwound
   with in [seen]. *)
let guarded unwound seen f =
  Fun.protect
    ~finally:(fun () -> incr unwound)
    (fun () ->
      match f () with
      | v -> v
      | exception e ->
          seen := Some e;
          raise e)

let check_abandoned name seen =
  match !seen with
  | Some Obsv.Trace.Abandoned -> ()
  | Some e -> Alcotest.failf "%s: unwound with %s" name (Printexc.to_string e)
  | None -> Alcotest.failf "%s: not unwound" name

(* Drop every message on the link [0 -> 1]. *)
let drop_alice =
  Faults.For_testing.make ~seed:5 (fun ~from_ ~to_:_ ->
      if from_ = 0 then { Faults.clean_link with drop = 1.0 } else Faults.clean_link)

let test_crashed_unwinds_peer () =
  let unwound = ref 0 and seen = ref None in
  let alice chan =
    ignore (chan.Chan.recv ());
    failwith "boom"
  and bob chan =
    guarded unwound seen (fun () ->
        chan.Chan.send (bits_of_int ~width:8 1);
        ignore (chan.Chan.recv ()))
  in
  (match Two_party.run_faulty ~plan:Faults.clean ~alice ~bob with
  | Network.Crashed { rank; exn; after_messages }, cost, _ ->
      check "crashed rank" 0 rank;
      Alcotest.(check string) "crash" "Failure(\"boom\")" exn;
      check "after messages" 1 after_messages;
      check "cost bits" 8 cost.Cost.total_bits
  | _ -> Alcotest.fail "expected a crash");
  check "finally runs once" 1 !unwound;
  check_abandoned "bob" seen

let test_lost_unwinds_both () =
  let unwound_a = ref 0 and seen_a = ref None in
  let unwound_b = ref 0 and seen_b = ref None in
  let alice chan =
    guarded unwound_a seen_a (fun () ->
        chan.Chan.send (bits_of_int ~width:8 1);
        ignore (chan.Chan.recv ()))
  and bob chan = guarded unwound_b seen_b (fun () -> ignore (chan.Chan.recv ())) in
  (match Two_party.run_faulty ~plan:drop_alice ~alice ~bob with
  | Network.Lost d, _, _ ->
      Alcotest.(check string)
        "diagnosis"
        "player 0 waits for player 1 after consuming 0 message(s) (link 1->0: 0 sent, 0 dropped, \
         0 truncated); player 1 waits for player 0 after consuming 0 message(s) (link 0->1: 1 \
         sent, 1 dropped, 0 truncated); channel dropped 1 message(s) in total; first drop was \
         message #0 on link 0->1"
        d.Network.detail
  | _ -> Alcotest.fail "expected a lost run");
  check "alice unwound once" 1 !unwound_a;
  check "bob unwound once" 1 !unwound_b;
  check_abandoned "alice" seen_a;
  check_abandoned "bob" seen_b

let test_deadlock_unwinds () =
  let unwound = ref 0 and seen = ref None in
  let party chan = guarded unwound seen (fun () -> ignore (chan.Chan.recv ())) in
  (match Two_party.run ~alice:party ~bob:party with
  | exception Network.Deadlock msg ->
      Alcotest.(check string)
        "message" "player 0 waits for a message from player 1 that never comes" msg
  | _ -> Alcotest.fail "expected deadlock");
  check "both unwound once" 2 !unwound;
  check_abandoned "deadlocked party" seen

let test_clean_raise_unwinds_peer () =
  let unwound = ref 0 and seen = ref None in
  let alice chan =
    ignore (chan.Chan.recv ());
    failwith "boom"
  and bob chan =
    guarded unwound seen (fun () ->
        chan.Chan.send (bits_of_int ~width:8 1);
        ignore (chan.Chan.recv ()))
  in
  (match Two_party.run ~alice ~bob with
  | exception Failure msg -> Alcotest.(check string) "alice's exception" "boom" msg
  | _ -> Alcotest.fail "expected alice's exception");
  check "bob unwound once" 1 !unwound;
  check_abandoned "bob" seen

(* Alice's reply never comes, so her span is open when the run ends: it
   keeps [end_seq = -1] and the export ends it at [final_seq], byte for
   byte as before abandoned players were unwound (the digest is of that
   export). *)
let test_traced_abandoned_spans () =
  let c = Obsv.Trace.create () in
  let outcome =
    Obsv.Trace.with_collector c (fun () ->
        let alice chan =
          Obsv.Trace.span Obsv.Phases.Trivial_offer (fun () ->
              chan.Chan.send (bits_of_int ~width:8 1);
              ignore (chan.Chan.recv ()))
        and bob chan =
          Obsv.Trace.span Obsv.Phases.Trivial_reply (fun () ->
              ignore (chan.Chan.recv ());
              chan.Chan.send (bits_of_int ~width:8 2))
        in
        let drop_bob =
          Faults.For_testing.make ~seed:5 (fun ~from_ ~to_:_ ->
              if from_ = 1 then { Faults.clean_link with drop = 1.0 } else Faults.clean_link)
        in
        let outcome, _, _ = Two_party.run_faulty ~plan:drop_bob ~alice ~bob in
        outcome)
  in
  (match outcome with Network.Lost _ -> () | _ -> Alcotest.fail "expected a lost run");
  (match Obsv.Trace.spans c with
  | [ a; b ] ->
      Alcotest.(check (option int)) "alice's span" (Some 0) a.Obsv.Trace.rank;
      check "alice's span stays open" (-1) a.Obsv.Trace.end_seq;
      Alcotest.(check bool) "bob's span closed" true (b.Obsv.Trace.end_seq >= 0)
  | spans -> Alcotest.failf "%d spans, expected 2" (List.length spans));
  let export =
    Stats.Json.to_string (Obsv.Export.chrome_trace c)
    ^ String.concat "\n" (Obsv.Export.jsonl c)
  in
  Alcotest.(check string)
    "export digest" "95953b9874676df1194e137dc9d0b58f"
    (Digest.to_hex (Digest.string export))

let () =
  Alcotest.run "commsim"
    [
      ( "two_party",
        [
          Alcotest.test_case "ping pong" `Quick test_ping_pong;
          Alcotest.test_case "batched sends share round" `Quick test_batched_sends_share_round;
          Alcotest.test_case "alternation rounds" `Quick test_alternation_rounds;
          Alcotest.test_case "fifo order" `Quick test_fifo_order;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "unreceived messages ok" `Quick test_no_result_loss_on_unreceived_messages;
          Alcotest.test_case "information barrier" `Quick test_information_barrier;
          Alcotest.test_case "cost aggregates" `Quick test_cost_aggregates;
        ] );
      ( "network",
        [
          Alcotest.test_case "ring rounds" `Quick test_ring_rounds;
          Alcotest.test_case "star parallel rounds" `Quick test_star_parallel_rounds;
          Alcotest.test_case "rank and size" `Quick test_rank_and_size;
          Alcotest.test_case "self send rejected" `Quick test_self_send_rejected;
          Alcotest.test_case "out of range rejected" `Quick test_out_of_range_rejected;
          Alcotest.test_case "pairwise fifo" `Quick test_pairwise_fifo_across_interleaving;
          Alcotest.test_case "inbox ring wraps" `Quick test_inbox_ring_wraps;
        ] );
      ( "message path",
        [
          Alcotest.test_case "allocation per message" `Quick test_message_allocation;
          Alcotest.test_case "invalid link escapes run_faulty" `Quick test_invalid_link_escapes;
        ] );
      ( "abandoned players",
        [
          Alcotest.test_case "crashed run unwinds its peer" `Quick test_crashed_unwinds_peer;
          Alcotest.test_case "lost run unwinds both" `Quick test_lost_unwinds_both;
          Alcotest.test_case "deadlock unwinds" `Quick test_deadlock_unwinds;
          Alcotest.test_case "clean raise unwinds its peer" `Quick test_clean_raise_unwinds_peer;
          Alcotest.test_case "traced abandoned spans" `Quick test_traced_abandoned_spans;
        ] );
    ]
