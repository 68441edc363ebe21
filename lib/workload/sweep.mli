(** The mega-sweep: a matrix run over protocol × k × fault-plan cells
    streaming [10^6+] seeded trials per invocation, for rare-event
    conformance at scales the 120-trial {!Conform} tier cannot reach.

    Two cell families share the runner:

    - {b clean} cells replay the {!Conform} registry (same promise-range
      instance distribution, same statement envelopes) at mega-trial
      scale, gating the observed failures against the paper's
      [1/poly(k)] bound via the one-sided 95% Wilson lower bound;
    - {b faulted} cells replay the {!Soak} semantics ({!Resilient}
      wrapper over an adversarial {!Commsim.Faults} link) and gate on
      the wrapper's rare-event bound
      [failures = 0 || rate <= attempts · 2^-check_bits].

    Affordability comes from the engine layer: trials stream through
    the {!Campaign} runner's {!Engine.Pool.fold} into per-chunk tallies
    (integer counts plus a mergeable {!Obsv.Sketch} — never a per-trial
    list), protocol instances are memoized per domain in an
    {!Engine.Instance_cache}, and codec buffers ride the {!Bitio.Pool}
    arenas.  All merges are
    exact (integer adds, max, bucket-pointwise sketch addition), so the
    report and its JSON are byte-identical at every domain count. *)

type config = {
  seed : int;
  trials_per_cell : int;
  universe_bits : int;  (** universe [2^universe_bits] *)
  protocols : string list;  (** clean cells: subset of {!Conform.entry_names} *)
  ks : int list;  (** clean-cell set sizes *)
  fault_protocols : string list;  (** faulted cells: subset of {!Intersect.Resilient.base_names} *)
  fault_ks : int list;  (** faulted-cell set sizes *)
  plans : (string * Commsim.Faults.link) list;  (** from {!Soak.plan_catalogue} *)
  budget_attempts : int;  (** {!Resilient} retry budget (faulted cells) *)
  check_bits : int;  (** initial fingerprint width (faulted cells) *)
}

(** 16 cells × 65_000 trials = 1_040_000 trials: clean
    [{eq, one-round, bucket, tree-r2} × {16, 64, 256}] plus faulted
    [{trivial, bucket} × {24} × {flip-1e-3, drop-2e-2}]. *)
val default : config

(** Seconds-scale: 3 cells × 400 trials, for the tier1 smoke gate. *)
val smoke : config

type report = { config : config; cells : Campaign.gate list; total_trials : int; pass : bool }

(** [run ?domains ?sink config] runs the whole matrix (after
    {!Campaign.matrix} validation).  With a [sink], each finished cell
    closes with one {!Telemetry.record_cell} — [sweep/trials], [/exact],
    [/degraded] and the [sweep/bits] sketch — sequentially, in matrix
    order, so the telemetry stream is also domain-count independent.
    Render the report with {!Campaign.gate_table} and
    {!Campaign.gate_violations}. *)
val run : ?domains:int -> ?sink:Telemetry.sink -> config -> report

(** Marker field ["bench": "sweep"] (checked by
    [json_check --bench-sweep]). *)
val to_json : ?reproduce:string -> report -> Stats.Json.t
