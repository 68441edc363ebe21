(** The theorem-conformance tier: seeded trial sweeps asserting that every
    registered protocol stays inside its paper envelope.

    For each (protocol, k) cell the tier runs [trials] independent seeded
    executions on the {!Campaign} runner and checks three envelopes:

    - {b rounds}: the observed round count of {e every} trial is at most
      the statement's budget (Lemma 3.3: 4; Fact 3.5: 2; Theorem 3.1:
      [c·√k]; Theorem 3.6: [6r]);
    - {b bits}: the mean total bits stay within a constant-factor envelope
      of the statement's asymptotic ([O(k)] for Theorem 3.1,
      [O(k·log^(r) k)] for Theorem 3.6, ...);
    - {b error}: the observed failure count is statistically consistent
      with the stated bound ([1 - 1/poly(k)] success, [2^-k]-style for
      equality): the cell fails only when the one-sided 95% Wilson {e
      lower} bound on the true error rate ({!Stats.Binomial}) exceeds the
      theoretical limit — no false alarms from a single unlucky trial the
      bound itself allows.

    Reports are pure functions of the config (engine seed streams), so a
    conformance failure is replayable bit for bit. *)

type config = {
  seed : int;
  trials : int;  (** per (protocol, k) cell *)
  ks : int list;  (** set-size sweep, e.g. [\[16; 64; 256\]] *)
  universe_bits : int;  (** universe [2^universe_bits] *)
  protocols : string list;  (** subset of {!entry_names} *)
}

(** One seeded execution: total bits, worst-case rounds, exactness. *)
type trial_outcome = { t_bits : int; t_rounds : int; t_exact : bool }

(** A registered statement.  [trial] draws a random promise instance and
    runs one seeded execution; protocol instances are memoized per domain
    through the supplied {!Engine.Instance_cache} (keyed
    ["<name>/k<k>"]), so builders must be pure functions of [(name, k)].
    The concrete record is exposed so other tiers (the {!Sweep} mega-run,
    test fixtures asserting that envelope violations are flagged) can
    reuse or fabricate entries. *)
type entry = {
  name : string;
  statement : string;
  trial :
    cache:Intersect.Protocol.t Engine.Instance_cache.t ->
    Prng.Rng.t ->
    universe:int ->
    k:int ->
    trial_outcome;
  rounds_limit : int -> int;
  bits_limit : int -> float;
  error_limit : int -> float;
}

(** The registered statements, in report order. *)
val registry : entry list

(** Names of the registered statements: ["trivial"], ["eq"] (Fact 3.5),
    ["basic"] (Lemma 3.3), ["one-round"], ["bucket"] (Theorem 3.1),
    ["tree-r2"], ["tree-r3"] and ["tree-log-star"] (Theorem 3.6). *)
val entry_names : string list

(** Registry lookup; [Invalid_argument] on unknown names. *)
val entry_of_name : string -> entry

(** Every entry, [k ∈ {16, 64, 256}], 120 trials per cell. *)
val default : config

(** Seconds-scale: [k = 16], 25 trials, every entry. *)
val smoke : config

type report = { config : config; cells : Campaign.gate list; pass : bool }

(** [clean_cell ?domains ?sink ~campaign ~seed ~trials ~universe_bits entry
    ~k] runs one clean cell of [entry] on the {!Campaign} runner (stream
    label ["<campaign>/<name>/k<k>"]) and gates it on the statement's
    envelopes.  The conformance tier and the {!Sweep} mega-run both build
    their clean cells here; tests fabricate entries whose envelope the
    trials must violate. *)
val clean_cell :
  ?domains:int ->
  ?sink:Telemetry.sink ->
  campaign:string ->
  seed:int ->
  trials:int ->
  universe_bits:int ->
  entry ->
  k:int ->
  Campaign.gate

(** [run ?domains config] — one {!clean_cell} per (protocol, k), after
    {!Campaign.matrix} validation ([Invalid_argument] on bad input or an
    unknown protocol); the report is byte-identical for every domain
    count.  Render it with {!Campaign.gate_table} and
    {!Campaign.gate_violations}. *)
val run : ?domains:int -> config -> report

val to_json : ?reproduce:string -> report -> Stats.Json.t
