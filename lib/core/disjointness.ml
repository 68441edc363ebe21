type outcome = { disjoint : bool; cost : Commsim.Cost.t }

type control = Index | Empty_set | Give_up

let write_control buf control =
  let code = match control with Index -> 0 | Empty_set -> 1 | Give_up -> 2 in
  Bitio.Bitbuf.write_bits buf ~width:2 code

let read_control reader =
  match Bitio.Bitreader.read_bits reader ~width:2 with
  | 0 -> Index
  | 1 -> Empty_set
  | 2 -> Give_up
  | _ -> failwith "Disjointness: bad control code"

(* Membership oracle for the shared random set Z_(round,j): each candidate
   set gets its own 30-bit shared tag function over elements; an element is
   in Z iff its tag falls below the density threshold. *)
let set_fn rng ~round j =
  Strhash.create (Prng.Rng.with_label rng (Printf.sprintf "hw/r%d/z%d" round j)) ~bits:30

let membership fn threshold x =
  let tag = Strhash.apply_int fn x in
  Bitio.Bits.extract tag ~pos:0 ~width:24 lor (Bitio.Bits.extract tag ~pos:24 ~width:6 lsl 24)
  < threshold

let threshold_of_density q =
  max 1 (int_of_float (q *. 1073741824.0 (* 2^30 *)))

let hw ?(bits_per_message = 8) rng ~universe s t =
  Protocol.validate_inputs ~universe s t;
  let b = max 2 bits_per_message in
  let k0 = max 1 (max (Array.length s) (Array.length t)) in
  let cap = 4 * (2 + (((k0 * (Iterated_log.log2_ceil (k0 + 2) + 4)) + b) / b)) in
  let party is_alice mine chan =
    let open Commsim.Transport in
    let current = ref mine in
    let round = ref 0 in
    let verdict = ref None in
    while !verdict = None do
      let my_turn = (!round mod 2 = 0) = is_alice in
      if my_turn then begin
        let size = Array.length !current in
        if size = 0 then begin
          let buf = Bitio.Bitbuf.create () in
          write_control buf Empty_set;
          Obsv.Trace.span Obsv.Phases.Disj_round (fun () -> chan.send (Bitio.Bitbuf.contents buf));
          verdict := Some true
        end
        else if !round >= cap then begin
          let buf = Bitio.Bitbuf.create () in
          write_control buf Give_up;
          Obsv.Trace.span Obsv.Phases.Disj_round (fun () -> chan.send (Bitio.Bitbuf.contents buf));
          verdict := Some false
        end
        else begin
          let q = Float.pow 2.0 (-.float_of_int b /. float_of_int size) in
          let threshold = threshold_of_density q in
          let covered j =
            let fn = set_fn rng ~round:!round j in
            Array.for_all (fun x -> membership fn threshold x) !current
          in
          let rec find j = if covered j then j else find (j + 1) in
          let j = find 1 in
          let buf = Bitio.Bitbuf.create () in
          write_control buf Index;
          Bitio.Codes.write_gamma buf size;
          Bitio.Codes.write_gamma buf (j - 1);
          Obsv.Trace.span Obsv.Phases.Disj_round (fun () -> chan.send (Bitio.Bitbuf.contents buf))
        end
      end
      else begin
        let reader = Bitio.Bitreader.create (chan.recv ()) in
        match read_control reader with
        | Empty_set -> verdict := Some true
        | Give_up -> verdict := Some false
        | Index ->
            let their_size = Bitio.Codes.read_gamma reader in
            let j = Bitio.Codes.read_gamma reader + 1 in
            let q = Float.pow 2.0 (-.float_of_int b /. float_of_int (max 1 their_size)) in
            let threshold = threshold_of_density q in
            let fn = set_fn rng ~round:!round j in
            current := Iset.filter (fun y -> membership fn threshold y) !current
      end;
      incr round
    done;
    Option.get !verdict
  in
  let (alice, bob), cost =
    Commsim.Two_party.run ~alice:(party true s) ~bob:(party false t)
  in
  assert (alice = bob);
  { disjoint = alice; cost }

let via_intersection protocol rng ~universe s t =
  let outcome = protocol.Protocol.run rng ~universe s t in
  {
    disjoint =
      Iset.cardinal outcome.Protocol.alice = 0 && Iset.cardinal outcome.Protocol.bob = 0;
    cost = outcome.Protocol.cost;
  }
