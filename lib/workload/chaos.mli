(** Seeded chaos campaigns over the session robustness layer.

    Where {!Soak} stresses the {e wrapper} (one [Resilient.run] per trial),
    a chaos campaign stresses the {e session}: every trial drives one
    {!Session.Machine} reconciliation through a fault scenario — corruption
    storms, stall bursts of dropped messages, flapping links, mid-session
    crashes — and the harness checks the session-layer contract rather than
    just the answer:

    - every session terminates with a structured outcome, and the
      completed/degraded/failed-safe taxonomy partitions the trials;
    - no completed or degraded result is ever a wrong intersection;
    - in interrupting campaigns the session is crashed at a seeded
      checkpoint boundary, its snapshot serialized, reparsed and resumed —
      and the resumed run must replay the uninterrupted one exactly
      (result, attempts, failures and cost ledger; only [resumes]
      differs).

    Campaigns run cell-by-cell (protocol x campaign) through the
    {!Campaign} runner, with every trial's inputs, fault plan and session seed
    derived from an {!Engine.Seed_stream}, so reports are byte-identical
    across domain counts and run-to-run. *)

(** One fault scenario: steady per-link damage, whether to exercise a
    mid-session crash/resume, and an optional per-campaign deadline
    (tight deadlines drive sessions into the failed-safe path). *)
type campaign = {
  link : Commsim.Faults.link;
  interrupt : bool;
  deadline_override : int option;
}

type config = {
  seed : int;
  trials : int;  (** per cell *)
  k : int;
  universe_bits : int;
  overlap : int;
  protocols : string list;  (** session base protocols *)
  campaigns : (string * campaign) list;
  deadline_bits : int;  (** session event-time budget (unless overridden) *)
  rung_attempts : int;
  check_bits0 : int;
  backoff_base : int;
  backoff_cap : int;
}

(** The named scenarios: [clean], [corruption-storm], [stall-burst],
    [flap], [crash-resume], [stall-crash], [deadline-squeeze]. *)
val campaign_catalogue : (string * campaign) list

(** Full matrix: 200 trials over three protocols and every campaign. *)
val default : config

(** A tier-1-sized matrix: 12 trials, two protocols, four campaigns. *)
val smoke : config

type cell = {
  protocol : string;
  campaign : string;
  trials : int;
  completed : int;  (** a guarded attempt's check accepted *)
  degraded : int;  (** exact result via the deterministic fallback *)
  failed_safe : int;  (** deadline exhausted; partial + diagnosis only *)
  resumed : int;  (** trials where a crash/restore cycle was exercised *)
  resumed_identical : int;  (** ... that replayed the uninterrupted run *)
  wrong : int;  (** exact results that were not [S ∩ T] (must be 0) *)
  attempts_total : int;
  rejected : int;  (** attempt failures by kind, summed over trials *)
  stalled : int;
  crashed : int;
  deadline : int;
  mean_spent_bits : float;
  mean_backoff_ticks : float;
  wasted_bits_total : int;
  mean_wasted_bits : float;
  recovered : int;  (** sessions that completed after >= 1 failure *)
  mean_recovery_ticks : float;
      (** mean event time (wasted bits + backoff) burned before the
          winning attempt, over recovered sessions *)
}

type report = { config : config; cells : cell list }

(** [run ?domains ?sink ?on_cell config] executes the campaign matrix on
    the {!Campaign} cell runner, protocol-major, calling
    [on_cell idx total cell] after each cell (the CLI's [top] view
    redraws there).  Invalid inputs ({!Campaign.matrix}) raise
    [Invalid_argument] before any cell runs.  With a [sink], every trial
    carries a flight recorder; each cell folds its session reports into
    per-chunk fleet registries ({!Telemetry.record_session}), harvests the
    first two post-mortems by trial index from non-[Completed] sessions,
    and closes with one {!Telemetry.record_cell}. *)
val run :
  ?domains:int ->
  ?sink:Telemetry.sink ->
  ?on_cell:(int -> int -> cell -> unit) ->
  config ->
  report

(** Violations of the chaos invariant (empty on a healthy report): outcome
    taxonomy partitions the trials, zero wrong results, every resume
    byte-identical.  The [chaos], [health] and [top] subcommands fail on
    any entry. *)
val invariant_violations : report -> string list

(** Machine-readable report; the top-level marker field is
    ["bench": "chaos"] (checked by [json_check --bench-chaos]). *)
val to_json : ?reproduce:string -> report -> Stats.Json.t

(** Human-readable per-cell table. *)
val summary : report -> string
