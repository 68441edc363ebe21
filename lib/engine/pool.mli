(** The domain-parallel trial runner.

    [map ~trials f] evaluates [f 0 .. f (trials - 1)] across OCaml 5
    domains and returns the results {e in index order}.  Workers pull
    contiguous chunks of indices from a shared atomic cursor (a chunked
    work queue: cheap enough to balance uneven trial times, coarse enough
    that the cursor is not a contention point) and write each result into
    its own slot of a pre-sized array, so no ordering decision is ever
    made by the scheduler.

    Determinism contract: provided [f] is a pure function of its index —
    which every engine workload guarantees by deriving its randomness via
    {!Seed_stream} — the returned array, and anything folded from it in
    index order, is byte-identical for every domain count and every
    scheduling.  Parallelism changes wall-clock time and nothing else.

    Trials must not talk to each other: each [f i] runs its own simulator
    execution with its own collectors ({!Obsv} ambient state is
    domain-local, and a spawned domain starts with observability
    disabled — install a per-trial registry inside [f] if you want
    metrics). *)

(** [Domain.recommended_domain_count ()], the default worker count. *)
val default_domains : unit -> int

(** [map ?domains ~trials f] is [[| f 0; ...; f (trials - 1) |]].
    [domains] defaults to {!default_domains}; [1] (or [trials <= 1]) runs
    sequentially on the calling domain with no spawns.  An exception in
    any trial aborts the run and re-raises after the workers join. *)
val map : ?domains:int -> trials:int -> (int -> 'a) -> 'a array

(** [fold ?domains ~trials ~init ~step ~merge ()] folds [step] over trial
    indices without materialising per-trial results: each worker folds the
    trials of a chunk into a private accumulator ([init ()] per chunk —
    accumulators may be freely mutable), and chunk accumulators are
    [merge]d in chunk-index order.

    Determinism contract, on top of {!map}'s purity requirement: [init ()]
    must be an identity for [merge] and [merge] must be associative over
    in-order accumulators (exact integer arithmetic, min/max, sketch
    bucket sums — not floating-point sums), because the chunk geometry
    varies with the worker count.  Under that contract the result is
    byte-identical at every domain count, in exchange for O(chunks) rather
    than O(trials) live results.  [merge] may mutate and return its left
    argument. *)
val fold :
  ?domains:int ->
  trials:int ->
  init:(unit -> 'acc) ->
  step:('acc -> int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
