let seed_bits ~universe ~k =
  Iterated_log.log2_ceil (max 2 k)
  + Iterated_log.log2_ceil (max 2 (Iterated_log.log2_ceil (max 2 universe)))
  + 32

let protocol base =
  {
    Protocol.name = "private-coin(" ^ base.Protocol.name ^ ")";
    sandwich = base.Protocol.sandwich;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = max 1 (max (Array.length s) (Array.length t)) in
        let bits = min 62 (seed_bits ~universe ~k) in
        (* Alice's private randomness is [rng]; the seed she ships is the
           only randomness Bob ever sees. *)
        let (seed_at_alice, seed_at_bob), exchange_cost =
          Commsim.Two_party.run
            ~alice:(fun chan ->
              let seed = Prng.Rng.bits (Prng.Rng.with_label rng "private/draw") ~width:bits in
              let buf = Bitio.Bitbuf.create () in
              Bitio.Bitbuf.write_bits buf ~width:bits seed;
              Obsv.Trace.span Obsv.Phases.Private_seed (fun () ->
                  Commsim.Transport.send chan (Bitio.Bitbuf.contents buf));
              seed)
            ~bob:(fun chan ->
              Bitio.Bitreader.read_bits (Bitio.Bitreader.create (Commsim.Transport.recv chan)) ~width:bits)
        in
        assert (seed_at_alice = seed_at_bob);
        let shared = Prng.Rng.of_seed (Int64.of_int seed_at_alice) in
        let outcome = base.Protocol.run shared ~universe s t in
        { outcome with Protocol.cost = Commsim.Cost.add_seq exchange_cost outcome.Protocol.cost });
  }
