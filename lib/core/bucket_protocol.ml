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
  (* Bucket assignment, flat: [keys.(j)] is image [j]'s bucket under the
     current draw and [counts.(i)] bucket [i]'s size, both refilled in
     place by a retry.  Draw buckets, exchange counts; retry together if
     the pair count is extreme (both parties see the same counts, so they
     stay in lockstep). *)
  let n = Array.length images in
  let keys = Array.make n 0 and counts = Array.make k 0 in
  let rec choose_buckets attempt =
    if attempt > 0 then Obsv.Metrics.incr "bucket/retries";
    let h =
      Hashing.Carter_wegman.create
        (Prng.Rng.with_label rng ("bucket/assign/" ^ string_of_int attempt))
        ~universe:n_reduced ~range:k
    in
    Array.fill counts 0 k 0;
    for j = 0 to n - 1 do
      let b = Hashing.Carter_wegman.hash h images.(j) in
      keys.(j) <- b;
      counts.(b) <- counts.(b) + 1
    done;
    let counts_msg =
      Bitio.Pool.payload (fun buf -> Array.iter (Bitio.Codes.write_gamma buf) counts)
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
    Array.iteri (fun i c -> pair_count := !pair_count + (c * their_counts.(i))) counts;
    if !pair_count > instance_ceiling k && attempt < max_retries then choose_buckets (attempt + 1)
    else (their_counts, !pair_count)
  in
  let their_counts, pair_count = choose_buckets 0 in
  Array.iter (Obsv.Metrics.observe "bucket/occupancy") counts;
  (* Counting sort: bucket [i]'s images are [slots.(start.(i))] to
     [slots.(start.(i) + counts.(i) - 1)], in increasing order. *)
  let start = Array.make k 0 in
  for i = 1 to k - 1 do
    start.(i) <- start.(i - 1) + counts.(i - 1)
  done;
  let slots = Array.make n 0 in
  Array.fill counts 0 k 0;
  for j = 0 to n - 1 do
    let b = keys.(j) in
    slots.(start.(b) + counts.(b)) <- j;
    counts.(b) <- counts.(b) + 1
  done;
  (* The common instance table: for bucket i, the cross product of
     Alice's and Bob's elements, in the canonical order both sides share —
     bucket index, then Alice's rank, then Bob's rank.  [walk f] calls [f
     j first step count] for each of this party's images [j], bucket by
     bucket in rank order: its instances are [first + t * step] for the
     peer's ranks [t < count] — a run of a row for Alice, a column for
     Bob. *)
  let alice = match role with `Alice -> true | `Bob -> false in
  let walk f =
    let base = ref 0 in
    for i = 0 to k - 1 do
      let mine_count = counts.(i) and theirs = their_counts.(i) in
      for m = 0 to mine_count - 1 do
        let j = slots.(start.(i) + m) in
        if alice then f j (!base + (m * theirs)) 1 theirs else f j (!base + m) mine_count theirs
      done;
      base := !base + (mine_count * theirs)
    done
  in
  (* Each party's input to an instance is its own element's image
     encoding, encoded once per element; the pair count is known from the
     exchanged counts, so the table is filled directly. *)
  let instances = Array.make pair_count Bitio.Bits.empty in
  walk (fun j first step count ->
      if count > 0 then begin
        let encoded = encode_image images.(j) in
        for t = 0 to count - 1 do
          instances.(first + (t * step)) <- encoded
        done
      end);
  Obsv.Metrics.set_gauge "bucket/instances" pair_count;
  let eq_rng = Prng.Rng.with_label rng "bucket/eq-batch" in
  let verdicts =
    Obsv.Trace.span Obsv.Phases.bucket_eq ~attrs:[ ("instances", string_of_int pair_count) ]
      (fun () ->
        match role with
        | `Alice -> Eq_batch.run_alice ?sequential eq_rng chan instances
        | `Bob -> Eq_batch.run_bob ?sequential eq_rng chan instances)
  in
  (* An instance's input is its owner's image, so the matched images are
     the ones with an instance that tested equal: marked by the same walk
     and read off [images] in order, which keeps them sorted. *)
  let hit = Bytes.make n '\000' and hits = ref 0 in
  walk (fun j first step count ->
      let t = ref 0 in
      while !t < count && not verdicts.(first + (!t * step)) do
        incr t
      done;
      if !t < count then begin
        Bytes.set hit j '\001';
        incr hits
      end);
  let matched = Array.make !hits 0 in
  let h = ref 0 in
  for j = 0 to n - 1 do
    if Bytes.get hit j <> '\000' then begin
      matched.(!h) <- images.(j);
      incr h
    end
  done;
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
