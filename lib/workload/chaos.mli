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

    Campaigns run cell-by-cell (protocol x campaign) through
    {!Engine.Pool}, with every trial's inputs, fault plan and session seed
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

(** The campaign matrix in execution order
    ([(protocol, campaign_name, campaign)]), for callers that drive cells
    one at a time (the CLI's [top] view). *)
val cells_of : config -> (string * string * campaign) list

(** [run_cell ?domains ?sink config camp ~protocol ~campaign_name] runs one
    cell.  With a [sink], every trial carries a flight recorder, session
    reports are folded into the fleet telemetry in deterministic trial
    order, up to two post-mortems per cell are harvested from
    non-[Completed] sessions, and the cell ends with one snapshot. *)
val run_cell :
  ?domains:int ->
  ?sink:Telemetry.sink ->
  config ->
  campaign ->
  protocol:string ->
  campaign_name:string ->
  cell

(** [run ?domains ?sink config] executes the full campaign matrix
    (telemetry as in {!run_cell} when [sink] is given). *)
val run : ?domains:int -> ?sink:Telemetry.sink -> config -> report

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
