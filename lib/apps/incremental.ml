open Intersect

type party = { current : Iset.t; candidate : Iset.t }

type update = { inserts : Iset.t; deletes : Iset.t }

let default_protocol () = Verified.protocol (Tree_protocol.protocol_log_star ())

let start ?protocol rng ~universe s t =
  let protocol = match protocol with Some p -> p | None -> default_protocol () in
  let outcome = protocol.Protocol.run rng ~universe s t in
  ( { current = s; candidate = outcome.Protocol.alice },
    { current = t; candidate = outcome.Protocol.bob },
    outcome.Protocol.cost )

let validate_update ~universe state { inserts; deletes } =
  Protocol.validate_inputs ~universe inserts deletes;
  if Array.length (Iset.inter inserts deletes) > 0 then
    invalid_arg "Incremental.sync: inserts and deletes overlap";
  if not (Iset.subset deletes state.current) then
    invalid_arg "Incremental.sync: deleting absent elements";
  if Array.length (Iset.inter inserts state.current) > 0 then
    invalid_arg "Incremental.sync: inserting present elements"

(* One side of the sync session.  Message flow (Alice = [`Alice]):
     1. A -> B : tag lists of A's deletes and inserts
     2. B -> A : B's tag lists + bitmap telling A which of her inserts are
                 in B's updated set
     3. A -> B : the mirror bitmap for B's inserts
     4-5.       : equality certification of the updated candidates
     6...       : full re-run, only if certification failed. *)
let sync_party role rng ~universe ~batch state update chan =
  let open Commsim.Transport in
  let new_current = Iset.union (Iset.diff state.current update.deletes) update.inserts in
  (* simultaneous size exchange: the tag width must be agreed, and it
     depends on both sides' sizes (as in Lemma 3.3) *)
  Obsv.Trace.span Obsv.Phases.App_sync (fun () ->
      chan.send (Wire.gamma_msg (Iset.cardinal new_current)));
  let their_size = Wire.read_gamma_msg (chan.recv ()) in
  let bits =
    Basic_intersection.tag_bits
      ~m:(Iset.cardinal new_current + their_size + 2)
      ~failure:1e-9
  in
  let fn =
    Strhash.create (Prng.Rng.with_label rng (Printf.sprintf "inc/batch%d" batch)) ~bits
  in
  let tag_key x = Bitio.Bits.key (Strhash.apply_int fn x) in
  let my_tags =
    let table = Hashtbl.create (Iset.cardinal new_current) in
    Array.iter (fun x -> Hashtbl.replace table (tag_key x) ()) new_current;
    table
  in
  let delta_message () =
    let buf = Bitio.Bitbuf.create () in
    Bitio.Codes.write_gamma buf (Iset.cardinal update.deletes);
    Basic_intersection.write_tags buf fn update.deletes;
    Bitio.Codes.write_gamma buf (Iset.cardinal update.inserts);
    Basic_intersection.write_tags buf fn update.inserts;
    Bitio.Bitbuf.contents buf
  in
  (* [their_insert_keys] keeps arrival order for the bitmap reply. *)
  let parse_deltas reader =
    let deletes = Basic_intersection.read_tag_keys reader ~bits ~count:(Bitio.Codes.read_gamma reader) in
    let insert_count = Bitio.Codes.read_gamma reader in
    let insert_keys =
      Array.init insert_count (fun _ ->
          Bitio.Bits.key (Bitio.Bitreader.read_blob reader ~bits))
    in
    (deletes, insert_keys)
  in
  let membership_bitmap insert_keys =
    Wire.bitmap_msg (Array.map (fun key -> Hashtbl.mem my_tags key) insert_keys)
  in
  let their_deletes, their_insert_keys, my_insert_bitmap =
    match role with
    | `Alice ->
        Obsv.Trace.span Obsv.Phases.App_sync (fun () -> chan.send (delta_message ()));
        let reader = Bitio.Bitreader.create (chan.recv ()) in
        let deletes, insert_keys = parse_deltas reader in
        let bitmap =
          Array.init (Iset.cardinal update.inserts) (fun _ -> Bitio.Bitreader.read_bit reader)
        in
        Obsv.Trace.span Obsv.Phases.App_sync (fun () -> chan.send (membership_bitmap insert_keys));
        (deletes, insert_keys, bitmap)
    | `Bob ->
        let reader = Bitio.Bitreader.create (chan.recv ()) in
        let deletes, insert_keys = parse_deltas reader in
        let buf = Bitio.Bitbuf.create () in
        Bitio.Bitbuf.append buf (delta_message ());
        Bitio.Bitbuf.append buf (membership_bitmap insert_keys);
        Obsv.Trace.span Obsv.Phases.App_sync (fun () -> chan.send (Bitio.Bitbuf.contents buf));
        let bitmap =
          Wire.read_bitmap_msg (chan.recv ()) ~width:(Iset.cardinal update.inserts)
        in
        (deletes, insert_keys, bitmap)
  in
  let their_inserts = Hashtbl.create 16 in
  Array.iter (fun key -> Hashtbl.replace their_inserts key ()) their_insert_keys;
  (* survivors: my own deletes leave exactly; their deletes leave by tag *)
  let survivors =
    let kept = Iset.diff state.candidate update.deletes in
    Iset.diff kept (Basic_intersection.filter_by_tags fn their_deletes kept)
  in
  (* joiners: my elements matching their fresh inserts, plus my inserts the
     other side confirmed (covers their pre-existing elements too) *)
  let joins_from_their_inserts =
    Iset.filter (fun x -> Hashtbl.mem their_inserts (tag_key x)) new_current
  in
  let confirmed_inserts =
    Array.to_list update.inserts
    |> List.filteri (fun i _ -> my_insert_bitmap.(i))
    |> Array.of_list
  in
  let candidate = Iset.union_many [ survivors; joins_from_their_inserts; confirmed_inserts ] in
  (* certification; on failure, repair with a full in-session run *)
  let eq_rng = Prng.Rng.with_label rng (Printf.sprintf "inc/certify%d" batch) in
  let agree =
    match role with
    | `Alice -> Equality.run_alice_set eq_rng ~bits:64 chan candidate
    | `Bob -> Equality.run_bob_set eq_rng ~bits:64 chan candidate
  in
  let candidate =
    if agree then candidate
    else begin
      let repair_rng = Prng.Rng.with_label rng (Printf.sprintf "inc/repair%d" batch) in
      let k = max 1 (Iset.cardinal new_current) in
      Tree_protocol.run_party role repair_rng ~universe ~r:(max 1 (Iterated_log.log_star k)) ~k
        chan new_current
    end
  in
  { current = new_current; candidate }

let sync rng ~universe ~batch alice bob ~alice_update ~bob_update =
  validate_update ~universe alice alice_update;
  validate_update ~universe bob bob_update;
  let batch_rng = Prng.Rng.with_label rng (Printf.sprintf "inc/sync%d" batch) in
  let (alice_state, bob_state), cost =
    Commsim.Two_party.run
      ~alice:(sync_party `Alice batch_rng ~universe ~batch alice alice_update)
      ~bob:(sync_party `Bob batch_rng ~universe ~batch bob bob_update)
  in
  (alice_state, bob_state, cost)
