open Intersect

type row = { key : int; payload : string }

type joined = { key : int; left : string; right : string }

let write_string buf s =
  Bitio.Codes.write_varint buf (String.length s);
  String.iter (fun c -> Bitio.Bitbuf.write_bits buf ~width:8 (Char.code c)) s

let read_string reader =
  let len = Bitio.Codes.read_varint reader in
  String.init len (fun _ -> Char.chr (Bitio.Bitreader.read_bits reader ~width:8))

let key_set table =
  let keys = Iset.of_array (Array.map (fun (row : row) -> row.key) table) in
  if Array.length keys <> Array.length table then invalid_arg "Join.run: duplicate keys";
  keys

let payloads_by_key table =
  let by_key = Hashtbl.create (Array.length table) in
  Array.iter (fun (row : row) -> Hashtbl.replace by_key row.key row.payload) table;
  by_key

(* Ship the payloads of the matched rows: the candidate key set (gap-coded,
   self-describing so a rare candidate mismatch cannot desynchronize the
   streams) followed by payloads in key order. *)
let matches_message table candidate =
  let by_key = payloads_by_key table in
  let buf = Bitio.Bitbuf.create () in
  Bitio.Set_codec.write_gaps buf candidate;
  Array.iter (fun key -> write_string buf (Hashtbl.find by_key key)) candidate;
  Bitio.Bitbuf.contents buf

let read_matches payload =
  let reader = Bitio.Bitreader.create payload in
  let keys = Bitio.Set_codec.read_gaps reader in
  let payloads = Array.map (fun _ -> read_string reader) keys in
  (keys, payloads)

let default_protocol () = Verified.protocol (Tree_protocol.protocol_log_star ())

let run ?protocol rng ~universe ~left ~right =
  let protocol = match protocol with Some p -> p | None -> default_protocol () in
  let keys_left = key_set left and keys_right = key_set right in
  let outcome = protocol.Protocol.run rng ~universe keys_left keys_right in
  let join_against mine their_keys their_payloads candidate =
    let theirs = Hashtbl.create (Array.length their_keys) in
    Array.iteri (fun i key -> Hashtbl.replace theirs key their_payloads.(i)) their_keys;
    let by_key = payloads_by_key mine in
    Array.to_list candidate
    |> List.filter_map (fun key ->
           match (Hashtbl.find_opt by_key key, Hashtbl.find_opt theirs key) with
           | Some my_payload, Some their_payload -> Some (key, my_payload, their_payload)
           | _ -> None)
  in
  let (alice_join, bob_join), exchange_cost =
    Commsim.Two_party.run
      ~alice:(fun chan ->
        Obsv.Trace.span Obsv.Phases.App_join (fun () ->
            Commsim.Transport.send chan (matches_message left outcome.Protocol.alice));
        let their_keys, their_payloads = read_matches (Commsim.Transport.recv chan) in
        join_against left their_keys their_payloads outcome.Protocol.alice
        |> List.map (fun (key, mine, theirs) -> { key; left = mine; right = theirs }))
      ~bob:(fun chan ->
        let payload = Commsim.Transport.recv chan in
        Obsv.Trace.span Obsv.Phases.App_join (fun () ->
            Commsim.Transport.send chan (matches_message right outcome.Protocol.bob));
        let their_keys, their_payloads = read_matches payload in
        join_against right their_keys their_payloads outcome.Protocol.bob
        |> List.map (fun (key, mine, theirs) -> { key; left = theirs; right = mine }))
  in
  assert (alice_join = bob_join);
  (alice_join, Commsim.Cost.add_seq outcome.Protocol.cost exchange_cost)
