let max_retries = 4

(* Instance-count ceiling: E[count] <= 6k (paper, eq. (1)); 20k is far in the
   tail, so retries are rare while the worst case stays linear. *)
let instance_ceiling k = 20 * k

let run_party ?sequential ?(reduce = true) role rng ~universe ~k chan mine =
  if k < 1 then invalid_arg "Bucket_protocol.run_party";
  let open Commsim.Transport in
  let n_reduced = if reduce then max 64 (k * k * k) else universe in
  (* Universe reduction H: [n] -> [k^3]; identity when already small.
     The reduced images form the set the buckets are drawn over. *)
  let reduction =
    if universe <= n_reduced then None
    else
      Some
        (Hashing.Carter_wegman.create
           (Prng.Rng.with_label rng "bucket/universe-reduce")
           ~universe ~range:n_reduced)
  in
  let images =
    match reduction with
    | None -> mine
    | Some h -> Iset.of_array (Array.map (Hashing.Carter_wegman.hash h) mine)
  in
  let width = Bitio.Set_codec.universe_width n_reduced in
  (* An instance input is its image's [width]-bit encoding over a whole
     8-byte word (the bits past [width] are zero), so every fingerprint
     chunk of it is a single load. *)
  let encode_image image =
    let word = Bytes.create 8 in
    Bytes.set_int64_le word 0 (Int64.of_int image);
    Bitio.Bits.unsafe_of_bytes word ~length:width
  in
  (* Draw buckets, exchange counts; retry together if the pair count is
     extreme (both parties see the same counts, so they stay in lockstep). *)
  let rec choose_buckets attempt =
    if attempt > 0 then Obsv.Metrics.incr "bucket/retries";
    let h =
      Hashing.Carter_wegman.create
        (Prng.Rng.with_label rng ("bucket/assign/" ^ string_of_int attempt))
        ~universe:n_reduced ~range:k
    in
    let buckets = Iset.partition_by (Hashing.Carter_wegman.hash h) ~bins:k images in
    let my_counts = Array.map Array.length buckets in
    let counts_msg =
      Bitio.Pool.payload (fun buf -> Array.iter (Bitio.Codes.write_gamma buf) my_counts)
    in
    let their_counts =
      let read payload =
        let reader = Bitio.Bitreader.create payload in
        Array.init k (fun _ -> Bitio.Codes.read_gamma reader)
      in
      Obsv.Trace.span Obsv.Phases.bucket_assign ~attrs:[ ("attempt", string_of_int attempt) ] (fun () ->
          match role with
          | `Alice ->
              chan.send counts_msg;
              read (chan.recv ())
          | `Bob ->
              let payload = chan.recv () in
              chan.send counts_msg;
              read payload)
    in
    let pair_count = ref 0 in
    Array.iteri (fun i c -> pair_count := !pair_count + (c * their_counts.(i))) my_counts;
    if !pair_count > instance_ceiling k && attempt < max_retries then choose_buckets (attempt + 1)
    else (buckets, their_counts, !pair_count)
  in
  let buckets, their_counts, pair_count = choose_buckets 0 in
  Array.iter (fun bucket -> Obsv.Metrics.observe "bucket/occupancy" (Array.length bucket)) buckets;
  (* Build the common instance table: for bucket i, the cross product of
     Alice's and Bob's elements, in the canonical order both sides share —
     bucket index, then Alice's rank, then Bob's rank.  Each party's input
     to an instance is its own element's image encoding, encoded once per
     element: Alice repeats each of hers across a row, Bob repeats his
     whole row per Alice element.  The pair count is known from the
     exchanged counts, so the tables are filled directly. *)
  let instances = Array.make pair_count Bitio.Bits.empty in
  let pos = ref 0 in
  Array.iteri
    (fun i bucket ->
      let encoded = Array.map encode_image bucket in
      let mine_count = Array.length bucket and theirs = their_counts.(i) in
      match role with
      | `Alice ->
          for a = 0 to mine_count - 1 do
            Array.fill instances !pos theirs encoded.(a);
            pos := !pos + theirs
          done
      | `Bob ->
          for _ = 1 to theirs do
            Array.blit encoded 0 instances !pos mine_count;
            pos := !pos + mine_count
          done)
    buckets;
  Obsv.Metrics.set_gauge "bucket/instances" (Array.length instances);
  let eq_rng = Prng.Rng.with_label rng "bucket/eq-batch" in
  let verdicts =
    Obsv.Trace.span Obsv.Phases.bucket_eq ~attrs:[ ("instances", string_of_int (Array.length instances)) ]
      (fun () ->
        match role with
        | `Alice -> Eq_batch.run_alice ?sequential eq_rng chan instances
        | `Bob -> Eq_batch.run_bob ?sequential eq_rng chan instances)
  in
  (* An instance's input is its owner's image encoding, so a matched
     instance reads back as the image it matched on. *)
  let hits = Array.fold_left (fun n equal -> if equal then n + 1 else n) 0 verdicts in
  let matched = Array.make hits 0 in
  let n = ref 0 in
  Array.iteri
    (fun idx equal ->
      if equal then begin
        matched.(!n) <- Bitio.Bits.extract instances.(idx) ~pos:0 ~width;
        incr n
      end)
    verdicts;
  let matched = Iset.of_array matched in
  (* Back through H: the elements whose image matched (sorted, since
     [mine] is). *)
  match reduction with
  | None -> matched
  | Some h -> Iset.filter (fun x -> Iset.mem matched (Hashing.Carter_wegman.hash h x)) mine

let protocol ?sequential ?reduce ?k () =
  {
    Protocol.name = "bucket-eq(sqrt-k rounds)";
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t)) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ?sequential ?reduce `Alice rng ~universe ~k chan s)
            ~bob:(fun chan -> run_party ?sequential ?reduce `Bob rng ~universe ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }
