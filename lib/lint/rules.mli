(** The rule catalogue, over parsed {!Parsetree} values.

    Rules see syntax only (no typing, no ppx): they are conservative
    conventions about what may be {e written}, which is exactly what the
    repo's whole-tree invariants (seeded replay, phase-exact accounting,
    domain safety) need enforced at build time.

    - {b R1 determinism} — no [Random.*], [Unix.time]/[gettimeofday],
      [Sys.time], [Hashtbl.hash]/[seeded_hash]/[hash_param]/[randomize],
      or [Hashtbl.create ~random:…] outside [lib/prng] and
      [lib/engine/seed_stream] (structural exemptions) — everything
      random must flow from a seed.
    - {b R2 ambient state} — no top-level mutable globals
      ([ref]/[Atomic.make]/[Hashtbl.create]/[Queue.create]/
      [Stack.create]/[Buffer.create], also under [lazy]) outside
      [lib/obsv], whose Domain-local wrappers are the sanctioned home
      for ambient state.
    - {b R3 phase registry} — a string literal passed to [Trace.span]
      must be registered (see {!Obsv.Phases}); constants pass by
      construction.
    - {b R4 domain hygiene} — [Domain.spawn]/[Domain.DLS] only in
      [lib/engine] and [lib/obsv].
    - {b R5 interface coverage} — every [lib/**.ml] has a matching
      [.mli].
    - {b R6 flight recorder} — [Obsv.Recorder.event] (the write side of
      the per-session flight recorder) only in [lib/session] and
      [lib/obsv]; everyone else reads recorders via
      [post_mortem_json]/[events].

    Structural exemptions above are part of the rule; anything else
    belongs in the allowlist ({!Allow}).

    The typed rule families R7..R11 (determinism taint, metered
    transport, cross-domain escape, dead phases, unreachable library
    bindings) are implemented over the cmt-based IR in
    {!Typed}/{!Taint}/{!Escape}; their catalogue entries and
    explanations live here so the id set, the allowlist validation, and
    [--rules]/[--explain] output stay in one place.

    - {b R11 unreachable library binding} (typed) — every binding in
      [bin/], [bench/], [perf/] and [examples/] roots the call graph; a
      top-level [lib/] binding none of them reaches is a finding.  Tests
      are not roots.  [(init:N)] bindings are never reported, and
      bindings inside a [For_testing] submodule (the home of test
      oracles and instruments) are exempt. *)

(** Rule ids with one-line descriptions, in report order ([syntax]
    first, then R1..R11).  This is also the id set allowlists are
    validated against. *)
val catalogue : (string * string) list

val rule_ids : string list

(** Long-form rationale for one rule id (for [--explain]): why the
    invariant exists and what the sanctioned alternative is.  [None] for
    unknown ids. *)
val explain : string -> string option

(** Check one parsed implementation.  [registry] decides R3 membership
    (the production linter passes [Obsv.Phases.mem]).  [file] is the
    root-relative path and selects each rule's structural scope. *)
val check_structure :
  registry:(string -> bool) -> file:string -> Parsetree.structure -> Finding.t list

(** R5 over the discovered file set: [files] are root-relative paths of
    every source file scanned; flags each [lib/**.ml] with no matching
    [.mli] in the set. *)
val check_mli_coverage : files:string list -> Finding.t list
