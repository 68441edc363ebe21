let default_domains () = Int.max 1 (Domain.recommended_domain_count ())

(* Chunk size: small enough that uneven trial times balance across workers
   (~8 chunks per worker), large enough that the atomic cursor stays cold.
   Results land in per-index slots, so chunk geometry never affects
   output — only wall-clock. *)
let chunk_size ~trials ~workers = Int.max 1 (trials / (workers * 8))

let map_parallel ~workers ~trials f =
  let results = Array.make trials None in
  let cursor = Atomic.make 0 in
  let chunk = chunk_size ~trials ~workers in
  let worker () =
    let rec loop () =
      let start = Atomic.fetch_and_add cursor chunk in
      if start < trials then begin
        let stop = Int.min trials (start + chunk) in
        for i = start to stop - 1 do
          results.(i) <- Some (f i)
        done;
        loop ()
      end
    in
    loop ()
  in
  let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  (* The calling domain is worker zero; join before re-raising so no domain
     outlives the call even when a trial throws. *)
  let mine = try Ok (worker ()) with e -> Error e in
  let joins = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
  (match mine with Error e -> raise e | Ok () -> ());
  Array.iter (function Error e -> raise e | Ok () -> ()) joins;
  Array.map
    (function Some v -> v | None -> failwith "Engine.Pool.map: unfilled slot")
    results

let map ?domains ~trials f =
  if trials < 0 then invalid_arg "Engine.Pool.map: trials < 0";
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d -> if d < 1 then invalid_arg "Engine.Pool.map: domains < 1" else d
  in
  let workers = Int.min domains (Int.max 1 trials) in
  if workers = 1 then Array.init trials f else map_parallel ~workers ~trials f

(* Streaming fold: one accumulator per chunk instead of one boxed slot per
   trial.  Workers claim whole chunks from the cursor, fold their trials
   locally, and park the chunk accumulator in a per-chunk slot; the final
   reduction merges the slots in chunk-index order.  Chunk boundaries are
   contiguous index ranges merged left to right, so any associative
   [merge] with [init ()] as identity sees a grouping of the exact
   sequential fold — identical result at every domain count, which is what
   lets the sweep's JSON pass the domains-1-vs-2 cmp gate while running
   10^6 trials without a 10^6-element results array. *)
let fold_parallel ~workers ~trials ~init ~step ~merge =
  let chunk = chunk_size ~trials ~workers in
  let chunks = (trials + chunk - 1) / chunk in
  let slots = Array.make chunks None in
  let cursor = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let c = Atomic.fetch_and_add cursor 1 in
      if c < chunks then begin
        let start = c * chunk in
        let stop = Int.min trials (start + chunk) in
        let acc = ref (init ()) in
        for i = start to stop - 1 do
          acc := step !acc i
        done;
        slots.(c) <- Some !acc;
        loop ()
      end
    in
    loop ()
  in
  let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  let mine = try Ok (worker ()) with e -> Error e in
  let joins = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
  (match mine with Error e -> raise e | Ok () -> ());
  Array.iter (function Error e -> raise e | Ok () -> ()) joins;
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Some a -> merge acc a
      | None -> failwith "Engine.Pool.fold: unfilled chunk")
    (init ()) slots

let fold ?domains ~trials ~init ~step ~merge () =
  if trials < 0 then invalid_arg "Engine.Pool.fold: trials < 0";
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d -> if d < 1 then invalid_arg "Engine.Pool.fold: domains < 1" else d
  in
  let workers = Int.min domains (Int.max 1 trials) in
  if workers = 1 then begin
    let acc = ref (init ()) in
    for i = 0 to trials - 1 do
      acc := step !acc i
    done;
    !acc
  end
  else fold_parallel ~workers ~trials ~init ~step ~merge
