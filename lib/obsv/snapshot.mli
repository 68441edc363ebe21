(** Event-time snapshots of a {!Metrics} registry, diffed into a JSONL
    time series.

    A snapshot copies the registry's sorted counters and gauges and
    summarizes each sketch down to count/sum/extrema/percentiles.
    [at] is {e event time} — sessions completed, trials run — never a
    wall clock, and every derived quantity (deltas, per-1000 rates) is
    integer arithmetic, so the emitted stream is byte-identical for a
    fixed seed at any domain count. *)

type sketch_summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_p50 : int;
  s_p90 : int;
  s_p99 : int;
  s_p999 : int;
}

type t = {
  seq : int;  (** position in the snapshot stream, from 0 *)
  at : int;  (** event-time stamp (e.g. sessions completed so far) *)
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  sketches : (string * sketch_summary) list;  (** sorted by name *)
}

(** [take ~seq ~at registry] snapshots [registry] now (inside a
    [telemetry/snapshot] span, so snapshot overhead is itself visible in
    traces). *)
val take : seq:int -> at:int -> Metrics.registry -> t

(** [counter t name] is the snapshotted value (0 when absent). *)
val counter : t -> string -> int

val gauge : t -> string -> int option
val sketch : t -> string -> sketch_summary option

(** One snapshot as a single-line-able JSON object
    ([{"event":"snapshot"; ...}]): counters, gauges and sketch
    summaries. *)
val to_json : t -> Stats.Json.t

(** [rates_json ~prev t] derives integer rates from two consecutive
    snapshots ([{"event":"rates"; ...}]): per-counter [delta] and
    [per_1000] ([delta * 1000 / dt], floor division; 0 when [dt <= 0]).
    Unchanged counters are omitted. *)
val rates_json : prev:t -> t -> Stats.Json.t
