(** The adversarial-channel soak harness.

    Runs [trials] seeded executions of each (protocol × fault plan) cell:
    every trial draws a fresh input pair, derives a per-trial fault plan,
    and runs the {!Intersect.Resilient} wrapper over the faulty channel.
    Per cell it aggregates exactness, retry/degradation behaviour, bit
    overhead against the fault-free baseline, and the injected damage, and
    checks the empirical error rate against the paper's
    [attempts * 2^-check_bits] acceptance bound ([2^-k]-style; see
    Section 4).  The whole report is a pure function of the config — same
    seed, same JSON, bit for bit. *)

type config = {
  seed : int;
  trials : int;  (** per cell *)
  k : int;  (** both input sets have this size *)
  universe_bits : int;  (** universe [2^universe_bits] *)
  overlap : int;  (** planted [|S ∩ T|] *)
  protocols : string list;  (** subset of {!Campaign.resilient_protocols} *)
  plans : (string * Commsim.Faults.link) list;  (** named per-link fault rates *)
  budget_attempts : int;  (** retry budget handed to {!Intersect.Resilient} *)
  check_bits : int;  (** initial verification-fingerprint width *)
}

(** The named fault plans of the default matrix: ["clean"], ["flip-1e-4"],
    ["flip-1e-3"], ["trunc-1e-2"], ["dup-5e-2"], ["drop-2e-2"] and the
    everything-at-once ["storm"]. *)
val plan_catalogue : (string * Commsim.Faults.link) list

(** The full matrix: 1000 trials per cell, every protocol, every plan. *)
val default : config

(** A seconds-scale configuration for CI: 40 trials, two protocols, three
    plans. *)
val smoke : config

(** Aggregates of one (protocol × plan) cell. *)
type cell = {
  protocol : string;
  plan : string;
  trials : int;
  exact : int;  (** trials whose result equalled [S ∩ T] *)
  verified : int;  (** trials accepted by a fingerprint check *)
  degraded : int;  (** trials that fell back to the deterministic exchange *)
  attempts_total : int;
  rejected : int;  (** attempt-level check rejections, summed *)
  lost : int;  (** attempts wedged on dropped messages *)
  crashed : int;  (** attempts killed by corrupted-payload decode errors *)
  mean_bits : float;  (** mean bits over the faulty channel + fallback *)
  baseline_bits : float;  (** fault-free mean bits of the same wrapper *)
  overhead : float;  (** [mean_bits /. baseline_bits] *)
  error_rate : float;  (** observed [1 - exact/trials] *)
  error_upper95 : float;  (** Wilson 95% upper bound on the true rate *)
  error_bound : float;  (** [budget_attempts * 2^-check_bits] *)
  within_bound : bool;  (** no observed failure, or rate within the bound *)
  flipped_bits : int;
  truncated : int;
  duplicated : int;
  dropped : int;
  first_failure : string option;
      (** the first carried failure diagnosis observed in the cell (rank,
          message index and consumed-message counts from
          {!Commsim.Network}); [None] when every attempt's only failures
          were check rejections *)
}

type report = { config : config; cells : cell list }

(** [run ?domains ?sink config] runs the matrix on the {!Campaign} cell
    runner; [domains] defaults to the machine's recommended domain count.
    Per-trial randomness is an {!Engine.Seed_stream} of the config seed and
    the cell coordinates, so the report — and its JSON — is byte-identical
    for {e every} domain count, including the sequential [~domains:1]
    which reproduces the historical single-core harness exactly.
    Invalid inputs ({!Campaign.matrix}) raise [Invalid_argument] before
    any cell runs.

    With a [sink], each cell closes with one {!Telemetry.record_cell}:
    [soak/trials], [soak/exact] and [soak/degraded] counters and the
    per-trial bit costs in the [soak/bits] sketch. *)
val run : ?domains:int -> ?sink:Telemetry.sink -> config -> report

(** [to_json ?reproduce report] renders the full report; [reproduce] is the
    exact command line that regenerates it. *)
val to_json : ?reproduce:string -> report -> Stats.Json.t

(** Human-readable cell table. *)
val summary : report -> string

(** One line per cell outside its error bound (empty on a healthy
    report), in the style of {!Chaos.invariant_violations}. *)
val violations : report -> string list
