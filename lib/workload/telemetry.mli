(** Fleet-telemetry plumbing for the workload harnesses.

    A {!sink} accumulates what a running campaign (chaos, soak, the CLI's
    [health]/[top]) learns about its session fleet: per-outcome counters
    and bit-spend {!Obsv.Sketch}es in a dedicated registry (under the
    {!Obsv.Health} metric-name contract), an event-time
    {!Obsv.Snapshot} stream, and the post-mortems harvested from
    per-session flight recorders.  Sinks are filled sequentially in
    deterministic trial order, so {!jsonl} is byte-identical run-to-run
    and across domain counts.

    The overhead bench ([run_overhead]) measures the hot-path cost of
    the telemetry layer itself — sketch + recorder + fleet counters on
    vs off over identical seeded sessions — and is the source of the
    regression-gated [BENCH_telemetry.json]. *)

type sink

val create_sink : unit -> sink

(** [record_session registry ~deadline_bits r ~wrong] folds one session
    report into a fleet registry: outcome/failure counters, spend
    sketches, and the deadline gauge (kept at the maximum across
    sessions).  A campaign records into per-chunk registries and closes
    the cell with {!record_cell}. *)
val record_session :
  Obsv.Metrics.registry -> deadline_bits:int -> Session.Machine.report -> wrong:bool -> unit

val last_snapshot : sink -> Obsv.Snapshot.t option
val postmortems : sink -> (int * Stats.Json.t) list

(** The JSONL telemetry stream: snapshot lines, each followed by a
    derived-rates line, merged with post-mortem lines on the event-time
    axis. *)
val jsonl : sink -> string list

(** [record_cell sink ~trials ?postmortems registry] closes one campaign
    cell: merges the cell's [registry] into the fleet registry
    ({!Obsv.Metrics.merge_into}), attaches each [(i, dump)] post-mortem at
    the event time trial [i] of the cell ended, advances event time by
    [trials] and takes one snapshot. *)
val record_cell :
  sink -> trials:int -> ?postmortems:(int * Stats.Json.t) list -> Obsv.Metrics.registry -> unit

(** {!Obsv.Health.evaluate} over the latest snapshot ([None] before the
    first snapshot). *)
val health : ?slos:Obsv.Health.slos -> sink -> Obsv.Health.report option

(** {2 Overhead bench} *)

type overhead_config = { seed : int; k : int; universe_bits : int; sessions : int }

(** k=1024, 24 sessions — the configuration [BENCH_telemetry.json] gates. *)
val overhead_default : overhead_config

(** k=256, 8 sessions — seconds-scale for tier1. *)
val overhead_smoke : overhead_config

type pass = {
  ns_per_session : float;  (** median over the run's passes of this side *)
  spent_bits : int;  (** summed over sessions — deterministic *)
  completed : int;  (** sessions that completed — deterministic *)
}

type overhead_report = {
  config : overhead_config;
  off : pass;  (** telemetry disabled (ambient defaults) *)
  on_ : pass;  (** fleet registry + per-session recorder + sketches *)
  ratio : float;  (** median over the off/on pairs of the per-pair on/off ratio *)
  deterministic_match : bool;
      (** telemetry must not perturb the sessions: spend and outcomes
          agree across every pass *)
}

(** Run a fixed number of off/on pairs of passes (the JSON's [pairs])
    over identical seeded clean-link sessions, alternating which side of
    a pair runs first (every pass verifies results against the
    precomputed truth, so telemetry is the only asymmetry). *)
val run_overhead : overhead_config -> overhead_report

(** Marker field ["bench": "telemetry"] (checked by
    [json_check --bench-telemetry]). *)
val overhead_json : ?reproduce:string -> overhead_report -> Stats.Json.t

val overhead_summary : overhead_report -> string

(** The overhead gate (empty when it holds): the deterministic fields
    must agree between the passes and, given [max_ratio], the on/off
    wall-clock ratio must not exceed it. *)
val overhead_violations : ?max_ratio:float -> overhead_report -> string list
