let max_retries = 4

(* Instance-count ceiling: E[count] <= 6k (paper, eq. (1)); 20k is far in the
   tail, so retries are rare while the worst case stays linear. *)
let instance_ceiling k = 20 * k

(* One party's run state, borrowed from a per-domain freelist and grown
   to each run: [keys], [slots] and [hit] hold at least n cells (one per
   image), [counts], [their_counts] and [start] at least k (one per
   bucket); [table] writes the instance table.  See [run_party]. *)
type workspace = {
  mutable keys : int array;
  mutable slots : int array;
  mutable hit : Bytes.t;
  mutable counts : int array;
  mutable their_counts : int array;
  mutable start : int array;
  table : Bitio.Bitbuf.t;
}

let workspaces =
  Bitio.Pool.freelist (fun () ->
      { keys = [||]; slots = [||]; hit = Bytes.empty; counts = [||]; their_counts = [||];
        start = [||]; table = Bitio.Bitbuf.create ~capacity:1024 () })

let fit ws ~n ~k =
  if Array.length ws.keys < n then begin
    ws.keys <- Array.make n 0;
    ws.slots <- Array.make n 0;
    ws.hit <- Bytes.create n
  end;
  if Array.length ws.counts < k then begin
    ws.counts <- Array.make k 0;
    ws.their_counts <- Array.make k 0;
    ws.start <- Array.make k 0
  end

let run_party role rng ~universe ~k chan mine =
  if k < 1 then invalid_arg "Bucket_protocol.run_party";
  let open Commsim.Transport in
  let n_reduced = Int.max 64 (k * k * k) in
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
  (* Bucket assignment, flat, in the workspace [in_workspace] borrows:
     [keys.(j)] is image [j]'s bucket under the current draw, and
     [counts.(i)] and [their_counts.(i)] the two parties' sizes of bucket
     [i], all refilled in place by a retry.  Draw buckets, exchange
     counts; retry together if the pair count is extreme (both parties
     see the same counts, so they stay in lockstep).  Every array is
     filled before it is read ([start.(0)] is never written and stays
     0), so a reused workspace needs no clearing. *)
  let n = Array.length images in
  let in_workspace ws =
    fit ws ~n ~k;
    let { keys; slots; hit; counts; their_counts; start; table } = ws in
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
        Bitio.Pool.payload (fun buf ->
            for i = 0 to k - 1 do
              Bitio.Codes.write_gamma buf counts.(i)
            done)
      in
      let read payload =
        let reader = Bitio.Bitreader.create payload in
        for i = 0 to k - 1 do
          their_counts.(i) <- Bitio.Codes.read_gamma reader
        done
      in
      Obsv.Trace.span Obsv.Phases.Bucket_assign (fun () ->
          Obsv.Trace.attr "attempt" attempt;
          match role with
          | `Alice ->
              chan.send counts_msg;
              read (chan.recv ())
          | `Bob ->
              let payload = chan.recv () in
              chan.send counts_msg;
              read payload);
      let pair_count = ref 0 in
      for i = 0 to k - 1 do
        pair_count := !pair_count + (counts.(i) * their_counts.(i))
      done;
      if !pair_count > instance_ceiling k && attempt < max_retries then choose_buckets (attempt + 1)
      else !pair_count
    in
    let pair_count = choose_buckets 0 in
    if Obsv.Metrics.enabled (Obsv.Metrics.current ()) then
      for i = 0 to k - 1 do
        Obsv.Metrics.observe "bucket/occupancy" counts.(i)
      done;
    (* Counting sort: bucket [i]'s images are [slots.(start.(i))] to
       [slots.(start.(i) + counts.(i) - 1)], in increasing order. *)
    for i = 1 to k - 1 do
      start.(i) <- start.(i - 1) + counts.(i - 1)
    done;
    Array.fill counts 0 k 0;
    for j = 0 to n - 1 do
      let b = keys.(j) in
      slots.(start.(b) + counts.(b)) <- j;
      counts.(b) <- counts.(b) + 1
    done;
    (* The common instance table, packed: for bucket i, the cross product
       of Alice's and Bob's elements, in the canonical order both sides
       share — bucket index, then Alice's rank, then Bob's rank — each
       instance one [width]-bit image, so instance [t] is bits
       [\[t * width, (t + 1) * width)].  A party's input to an instance is
       its own image: Alice writes each of her images once per peer element
       of its bucket (a run of a row), Bob his bucket's row once per peer
       element (a column apiece).  [table] is written from empty. *)
    let alice = match role with `Alice -> true | `Bob -> false in
    Obsv.Metrics.set_gauge "bucket/instances" pair_count;
    let eq_rng = Prng.Rng.with_label rng "bucket/eq-batch" in
    let verdicts =
      Bitio.Bitbuf.reset table;
      for i = 0 to k - 1 do
        let first = start.(i) and mine_count = counts.(i) and theirs = their_counts.(i) in
        if alice then
          for m = first to first + mine_count - 1 do
            let image = images.(slots.(m)) in
            for _ = 1 to theirs do
              Bitio.Bitbuf.write_bits table ~width image
            done
          done
        else
          for _ = 1 to theirs do
            for m = first to first + mine_count - 1 do
              Bitio.Bitbuf.write_bits table ~width images.(slots.(m))
            done
          done
      done;
      Obsv.Trace.span Obsv.Phases.Bucket_eq (fun () ->
          Obsv.Trace.attr "instances" pair_count;
          Eq_batch.run_table role eq_rng chan (Bitio.Bitbuf.view table)
            (Eq_batch.Uniform { count = pair_count; width }))
    in
    (* An instance's input is its owner's image, so the matched images are
       the ones with an instance that tested equal.  Image [j] of bucket i
       at rank [m] has its instances at [first + t * step] for the peer's
       ranks [t < theirs] — a run of a row for Alice, a column for Bob.
       Verdicts are random to the branch predictor, so the walk ORs each
       image's verdict bytes (each 0 or 1) with no early exit, and the
       images are gathered in order (which keeps them sorted) into [keys],
       free since the counting sort, each written and kept by its hit
       bit. *)
    let base = ref 0 in
    for i = 0 to k - 1 do
      let mine_count = counts.(i) and theirs = their_counts.(i) in
      let step = if alice then 1 else mine_count in
      for m = 0 to mine_count - 1 do
        let first = if alice then !base + (m * theirs) else !base + m in
        let any = ref 0 in
        for t = 0 to theirs - 1 do
          any := !any lor Char.code (Bytes.get verdicts (first + (t * step)))
        done;
        Bytes.set hit slots.(start.(i) + m) (Char.unsafe_chr !any)
      done;
      base := !base + (mine_count * theirs)
    done;
    let h = ref 0 in
    for j = 0 to n - 1 do
      keys.(!h) <- images.(j);
      h := !h + Char.code (Bytes.get hit j)
    done;
    Array.sub keys 0 !h
  in
  let matched = Bitio.Pool.using workspaces in_workspace in
  (* Back through H: the elements whose image matched (sorted, since
     [mine] is). *)
  match reduction with
  | None -> matched
  | Some h -> Iset.filter (fun x -> Iset.mem matched (Hashing.Carter_wegman.hash h x)) mine

let protocol ?k () =
  {
    Protocol.name = "bucket-eq(sqrt-k rounds)";
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = match k with Some k -> k | None -> Int.max 1 (Int.max (Array.length s) (Array.length t)) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party `Alice rng ~universe ~k chan s)
            ~bob:(fun chan -> run_party `Bob rng ~universe ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }
