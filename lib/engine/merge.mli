(** Associative merges for the per-trial artifacts the engine aggregates.

    Everything here is deterministic given a deterministic input order;
    {!Pool.map} supplies trial-index order regardless of scheduling. *)

(** [cost a b] aggregates two executions' costs between the same player
    set: bits, messages, per-player tallies and rounds all add (the
    sequential composition of {!Commsim.Cost.add_seq}, which is both
    associative and commutative).  Use for "total work over a trial
    grid". *)
val cost : Commsim.Cost.t -> Commsim.Cost.t -> Commsim.Cost.t

(** [costs ~players l] folds {!cost} over [l] starting from zero. *)
val costs : players:int -> Commsim.Cost.t list -> Commsim.Cost.t

(** [metrics registries] merges per-trial registries into one fresh enabled
    registry, in list order ({!Obsv.Metrics.merge_into}: counters and
    sketches add, gauges keep the maximum). *)
val metrics : Obsv.Metrics.registry list -> Obsv.Metrics.registry
