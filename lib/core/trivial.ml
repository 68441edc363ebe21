let protocol =
  {
    Protocol.name = "trivial";
    sandwich = true;
    run =
      (fun _rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let alice chan =
          Obsv.Trace.span Obsv.Phases.Trivial_offer (fun () -> Commsim.Transport.send chan (Wire.of_set s));
          Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (Commsim.Transport.recv chan))
        in
        let bob chan =
          let received =
            Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (Commsim.Transport.recv chan))
          in
          let intersection = Iset.inter received t in
          Obsv.Trace.span Obsv.Phases.Trivial_reply (fun () ->
              Commsim.Transport.send chan (Wire.of_set intersection));
          intersection
        in
        let (alice, bob), cost = Commsim.Two_party.run ~alice ~bob in
        { Protocol.alice; bob; cost });
  }

let protocol_entropy =
  {
    Protocol.name = "trivial-entropy-coded";
    sandwich = true;
    run =
      (fun _rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let encode set =
          Bitio.Pool.payload (fun buf -> Bitio.Enum_codec.write buf ~universe set)
        in
        let decode payload = Bitio.Enum_codec.read (Bitio.Bitreader.create payload) ~universe in
        let alice chan =
          Obsv.Trace.span Obsv.Phases.Trivial_offer (fun () -> Commsim.Transport.send chan (encode s));
          decode (Commsim.Transport.recv chan)
        in
        let bob chan =
          let received = decode (Commsim.Transport.recv chan) in
          let intersection = Iset.inter received t in
          Obsv.Trace.span Obsv.Phases.Trivial_reply (fun () -> Commsim.Transport.send chan (encode intersection));
          intersection
        in
        let (alice, bob), cost = Commsim.Two_party.run ~alice ~bob in
        { Protocol.alice; bob; cost });
  }

let protocol_full_exchange =
  {
    Protocol.name = "trivial-full-exchange";
    sandwich = true;
    run =
      (fun _rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let party mine chan =
          Obsv.Trace.span Obsv.Phases.Trivial_offer (fun () -> Commsim.Transport.send chan (Wire.of_set mine));
          let theirs =
            Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (Commsim.Transport.recv chan))
          in
          Iset.inter mine theirs
        in
        let (alice, bob), cost = Commsim.Two_party.run ~alice:(party s) ~bob:(party t) in
        { Protocol.alice; bob; cost });
  }
