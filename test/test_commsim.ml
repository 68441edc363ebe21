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
        ] );
    ]
