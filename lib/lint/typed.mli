(** The typed lint pass: cmt discovery, call-graph construction, and the
    semantic rule families R7 (determinism taint), R8 (metered-transport
    accounting), R9 (cross-domain escape), R10 (dead phases), R11
    (unreachable library bindings). *)

(** Analysis scopes, parameterised so tests can run the same rules over
    in-process fixtures with their own module names.  All prefixes match
    repo-relative, ['/']-separated paths. *)
type config = {
  party_prefixes : string list;
  sanctioned_prefixes : string list;
  meter_prefixes : string list;
  meter_exempt_prefixes : string list;
  span_fns : string list;
  transport_fns : string list;
  transport_types : string list;
  transport_labels : string list;
  escape_global_exempt : string list;
  escape_capture_exempt : string list;
  registry_module : string;
}

(** This repo's layout: parties in [lib/core] / [lib/multiparty] /
    [lib/apps] / [lib/session]; randomness sanctioned in [lib/prng] and
    the seed stream; transport is [Commsim.Transport]; spans are
    [Obsv.Trace.span]; the phase registry is [Obsv.Phases].  R11's
    scopes are fixed: the bindings of [bin/], [bench/], [perf/] and
    [examples/] must reach every [lib/] binding. *)
val default_config : config

(** Run R7..R11 over loaded modules.  Findings come back sorted
    ({!Finding.compare}) and byte-stable across runs. *)
val analyze : ?config:config -> types:Cmt_load.types_info -> Cmt_load.modu list -> Finding.t list

(** Discover and load the [.cmt] artifacts for [files] (repo-relative
    scanned sources) under [root] — looking in [root/_build/default]
    when present, so the linter works both from a source checkout and
    from inside the build tree.  Duplicate artifacts for one source
    (per-executable object dirs) collapse to the first in sorted path
    order; artifacts for files outside the scanned set are ignored. *)
val load :
  ?config:config ->
  root:string ->
  files:string list ->
  unit ->
  (Cmt_load.types_info * Cmt_load.modu list, string) result

(** [load] + [analyze]: returns the number of typed modules and the
    findings, or an error when no artifacts exist (not built yet). *)
val run :
  ?config:config -> root:string -> files:string list -> unit -> (int * Finding.t list, string) result
