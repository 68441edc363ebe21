(** Hot-path regression bench over the registered two-party protocols.

    Each cell is one [(protocol, k)] pair run on seeded workloads, plus
    three fixed cells: ["guarded-attempt"] (one [Resilient.attempt_once]
    of bucket at k = 256 over universe 2^16, on a link flipping 1e-5 of
    the bits and truncating 1e-2 of the messages), ["conform-smallk"]
    (Conform's cached one-round k = 64 plus tree-r2 k = 16 trial pair,
    inputs drawn inside the window) and ["guarded-session"] (one
    [Session.Machine.run] of bucket at k = 256 over universe 2^16 on the
    same link, with a 4 000 000-bit deadline; its cost is the session
    ledger's).  Every field is deterministic for a
    fixed seed, allocation bytes/run of a warm sweep included, so the
    committed BENCH_hotpath.json is the repo's one allocation baseline
    and is gated byte for byte.  Wall-clock time is measured by [perf/]
    alone. *)

type cell = {
  protocol : string;
  k : int;
  trials : int;
  alloc_bytes_per_run : float;  (** one warm sweep over the trial set *)
  total_bits : int;  (** summed over the seeded trials — deterministic *)
  messages : int;  (** summed over the seeded trials — deterministic *)
  rounds : int;  (** summed over the seeded trials — deterministic *)
}

type report = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  cells : cell list;
}

type config = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  protocols : string list;
}

(** The registered suite, in run order. *)
val protocol_names : string list

(** The protocol a suite name denotes, at its benchmarked
    parameterization.  Raises [Invalid_argument] on unknown names.  Used
    by the hot-path tests to run the exact registered suite. *)
val protocol_of : name:string -> k:int -> Intersect.Protocol.t

(** Full sweep: every registered protocol at k ∈ 64, 1024, 4096 (the
    enumerative-codec cell is capped at k = 256; its bignum unranking is
    super-linear in k), then the three fixed cells, which run at their own
    k whatever [ks] holds.  [default.protocols] lists every cell name. *)
val default : config

(** The k = 64 slice of {!default}, trial count included, so it compares
    cell for cell against a committed full-sweep baseline; seconds-scale,
    for the tier-1 gate. *)
val smoke : config

(** Run the configured sweep.  Raises [Invalid_argument] before any cell
    runs on a name outside [default.protocols] and on inputs
    {!Campaign.validate} rejects. *)
val run : config -> report

(** The BENCH_hotpath.json document. *)
val to_json : report -> Stats.Json.t

(** Every field but allocation: what a change that moves bytes/run must
    still reproduce byte for byte (compare the parent's rendering with
    the change's). *)
val deterministic_json : report -> Stats.Json.t

val summary : report -> string

(** [baseline_violations report baseline_json] checks [report] against a
    parsed committed baseline, one line per violation naming the cell and
    the field (empty when it holds): every field of every run cell,
    [alloc_bytes_per_run] included, must render exactly as the
    baseline's.  Baseline cells the run skips are ignored, so a smoke
    slice compares cleanly; a run cell the baseline lacks, a run with no
    cell and a malformed baseline are violations. *)
val baseline_violations : report -> Stats.Json.t -> string list
