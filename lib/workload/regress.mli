(** Hot-path regression bench over the registered two-party protocols.

    Each cell is one [(protocol, k)] pair run on seeded workloads:
    allocation bytes/run is the tracked performance trajectory
    (BENCH_hotpath.json), while total bits, message and round counts are
    deterministic and must reproduce byte-for-byte for a fixed seed — the
    transcript-invariance contract every perf PR is gated on.  Wall-clock
    time is measured by [perf/] alone. *)

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
    super-linear in k). *)
val default : config

(** The k = 64 slice of {!default}, trial count included, so it compares
    cell for cell against a committed full-sweep baseline; seconds-scale,
    for the tier-1 gate. *)
val smoke : config

(** Run the configured sweep.  Raises [Invalid_argument] on unknown
    protocol names and on inputs {!Campaign.validate} rejects. *)
val run : config -> report

(** The BENCH_hotpath.json document. *)
val to_json : report -> Stats.Json.t

(** Only the seeded fields (bits, messages, rounds, counts): two runs of
    the same config must produce byte-identical renderings of this. *)
val deterministic_json : report -> Stats.Json.t

val summary : report -> string

(** [baseline_violations ~tolerance report baseline_json] checks [report]
    against a parsed committed baseline, one line per violation (empty
    when it holds): deterministic fields must match exactly;
    [alloc_bytes_per_run] may exceed the baseline by at most a factor of
    [1 + tolerance].  Cells missing from the baseline
    are skipped, so smoke subsets compare cleanly; a malformed baseline,
    or one sharing no cell with the run, is itself a violation. *)
val baseline_violations : tolerance:float -> report -> Stats.Json.t -> string list
