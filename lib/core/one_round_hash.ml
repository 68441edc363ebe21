let tag_bits ~k ~confidence =
  if confidence < 1 then invalid_arg "One_round_hash.tag_bits";
  max 8 (confidence * Iterated_log.log2_ceil (max 2 k))

(* Both parties run the same body: send the tags of [mine], then keep the
   elements whose tag the peer sent. *)
let run_party ?(confidence = 4) rng ~k chan mine =
  let bits = tag_bits ~k ~confidence in
  let fn = Strhash.create (Prng.Rng.with_label rng "one-round/fn") ~bits in
  Obsv.Trace.span Obsv.Phases.Orh_tags (fun () ->
      Commsim.Transport.send chan
        (Bitio.Pool.payload (fun buf ->
             Bitio.Codes.write_gamma buf (Array.length mine);
             Basic_intersection.write_tags buf fn mine)));
  let reader = Bitio.Bitreader.create (Commsim.Transport.recv chan) in
  let count = Bitio.Codes.read_gamma reader in
  let table = Basic_intersection.read_tag_keys reader ~bits ~count in
  Basic_intersection.filter_by_tags fn table mine

let protocol ?confidence () =
  {
    Protocol.name =
      Printf.sprintf "one-round-hash(C=%d)" (Option.value confidence ~default:4);
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = max 1 (max (Array.length s) (Array.length t)) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ?confidence rng ~k chan s)
            ~bob:(fun chan -> run_party ?confidence rng ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }
