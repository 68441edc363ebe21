(** A metrics registry: named counters, gauges, and quantile {!Sketch}es
    that protocol code records into.

    Like {!Trace}, the registry is ambient ({!with_registry}) and the
    default is {!disabled}, so instrumentation in hot paths costs one load
    and one branch when metrics are off.  All values are integers and all
    exports sort their keys, so a fixed seed produces byte-identical
    output. *)

type registry

(** The shared no-op registry (the ambient default). *)
val disabled : registry

val create : unit -> registry
val enabled : registry -> bool

(** The ambient registry ({!disabled} unless inside {!with_registry}). *)
val current : unit -> registry

val with_registry : registry -> (unit -> 'a) -> 'a

(** [incr ?by name] bumps counter [name] (created at zero on first use). *)
val incr : ?by:int -> string -> unit

(** [set_gauge name v] records the latest value of [name]. *)
val set_gauge : string -> int -> unit

(** [observe name v] adds [v] to the quantile {!Sketch} named [name]
    (created on first use), at 1/16 relative error: payload sizes, tag
    widths, bucket occupancies and per-session bit spend all keep the
    same mergeable, deterministic shape. *)
val observe : string -> int -> unit

(** [merge_sketch name src] folds a pre-accumulated sketch into the
    ambient sketch named [name] (created on first use; no-op when metrics
    are off).  The bucket-pointwise merge is what lets a parallel sweep
    accumulate bit distributions in private per-chunk sketches and publish
    the combined sketch once per cell instead of once per trial. *)
val merge_sketch : string -> Sketch.t -> unit

(** [merge_into ~into src] folds [src] into [into]: counters add, sketches
    add pointwise (count, sum, buckets; min/max combine), and gauges keep
    the {e maximum} — "latest" is meaningless across independent parallel
    trials, and max is order-free.  The merge is associative and
    commutative, so a trial engine may combine per-worker registries in any
    grouping and reach the same final registry.  [src] is unchanged; [into]
    must be enabled. *)
val merge_into : into:registry -> registry -> unit

(** Readbacks for tests and reports (0 / [None] when never recorded). *)
val counter_value : registry -> string -> int

val gauge_value : registry -> string -> int option
val sketch_of : registry -> string -> Sketch.t option

(** Sorted (hence deterministic) enumerations, for snapshotting the whole
    registry. *)
val counters_list : registry -> (string * int) list

val gauges_list : registry -> (string * int) list
val sketches_list : registry -> (string * Sketch.t) list

(** Deterministic export: keys sorted, shape [{counters; gauges;
    sketches}]. *)
val to_json : registry -> Stats.Json.t
