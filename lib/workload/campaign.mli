(** The one cell runner behind every seeded campaign ({!Soak}, {!Chaos},
    {!Conform}, {!Sweep}).

    A campaign is a matrix of cells.  A cell is a seed stream labelled
    ["<campaign>/<cell>"], an {!Engine.Pool.fold} in which trial [i] draws
    its randomness from [trial_rng stream (i + 1)], a mergeable per-chunk
    accumulator, and — with a telemetry sink — one close that merges the
    cell's metrics into the fleet registry and takes one snapshot.  Every
    accumulator merge is exact (integer adds, max, bucket-pointwise sketch
    addition, first-by-trial-index), so reports and telemetry streams are
    byte-identical at every domain count.

    The module also holds what the campaigns share beyond the runner: the
    {!Intersect.Resilient} base table and faulted trial, the gate cell
    that conformance and sweep cells report, the report envelope and the
    table renderer. *)

(** {1 Matrix and cells} *)

(** [validate ~trials ~ks ?overlap ()] raises [Invalid_argument] unless
    [trials >= 1], every [k >= 1] and [0 <= overlap <= k]. *)
val validate : trials:int -> ks:int list -> ?overlap:int -> unit -> unit

(** [matrix ~trials ~ks ?overlap ?on_cell cells] {!validate}s a
    campaign's inputs and rejects an empty matrix — before any cell runs
    — then runs [cells] in order.  [on_cell idx total cell] sees each
    finished cell ([idx] from 1). *)
val matrix :
  trials:int ->
  ks:int list ->
  ?overlap:int ->
  ?on_cell:(int -> int -> 'cell -> unit) ->
  (unit -> 'cell) list ->
  'cell list

(** How a cell accumulates: a fresh per-chunk accumulator, an exact
    associative merge (it may mutate and return its left argument; see
    {!Engine.Pool.fold}), and the telemetry close — the cell's metrics
    registry plus its post-mortems as [(trial index, dump)] pairs, given
    the campaign name. *)
type 'acc accumulator = {
  init : unit -> 'acc;
  merge : 'acc -> 'acc -> 'acc;
  telemetry : campaign:string -> 'acc -> Obsv.Metrics.registry * (int * Stats.Json.t) list;
}

(** [run_cell ?domains ?sink acc ~campaign ~cell ~seed ~trials step] folds
    [step a i rng] over trials [0 .. trials - 1] with
    [rng = trial_rng (Seed_stream.create ~base:seed
    ~label:(campaign ^ "/" ^ cell)) (i + 1)], then, given a [sink], closes
    the cell with {!Telemetry.record_cell}. *)
val run_cell :
  ?domains:int ->
  ?sink:Telemetry.sink ->
  'acc accumulator ->
  campaign:string ->
  cell:string ->
  seed:int ->
  trials:int ->
  ('acc -> int -> Prng.Rng.t -> unit) ->
  'acc

(** {1 The outcome tally} *)

(** Per-trial outcomes folded into one mutable record: exactness, worst
    rounds and the bits distribution for every trial, plus the
    {!Intersect.Resilient} wrapper's verdicts, retries and injected damage
    for faulted trials (zero for clean ones). *)
type tally = {
  mutable failures : int;  (** trials whose output was not exactly [S ∩ T] *)
  mutable verified : int;
  mutable degraded : int;
  mutable attempts : int;
  mutable rejected : int;
  mutable lost : int;
  mutable crashed : int;
  mutable damage : Commsim.Faults.tally;
  mutable rounds_max : int;
  bits : Obsv.Sketch.t;  (** one observation per trial *)
  mutable first_failure : string option;
      (** the first carried failure diagnosis, by trial index *)
}

(** The tally's accumulator.  Its telemetry close bumps the
    [<campaign>/trials], [/exact] and [/degraded] counters and folds the
    bits sketch into [<campaign>/bits]. *)
val tally : tally accumulator

(** Exact mean bits per trial ([0.] when empty). *)
val mean_bits : tally -> float

val add_trial : tally -> bits:int -> rounds:int -> exact:bool -> unit

(** {1 The resilient wrapper} *)

(** The wrapper's rare-event bound [budget_attempts * 2^-check_bits]. *)
val error_bound : budget_attempts:int -> check_bits:int -> float

(** The faulted trial as a cell step: inputs (a [k]-set pair with the
    planted [overlap]), a per-trial fault plan over [link], and one
    {!Intersect.Resilient.run}, each derived from its own label of the
    trial generator; the report and its exactness go into the tally. *)
val resilient_step :
  Intersect.Resilient.base ->
  link:Commsim.Faults.link ->
  budget_attempts:int ->
  check_bits:int ->
  universe_bits:int ->
  k:int ->
  overlap:int ->
  tally ->
  int ->
  Prng.Rng.t ->
  unit

(** {1 Gate cells} *)

(** The bits distribution read off a tally's sketch: the mean is exact,
    quantiles are sketch bucket upper bounds (1/16 relative error). *)
type bits_summary = {
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  min_bits : int;
  max_bits : int;
}

(** A cell gated on an error envelope.  Clean cells ([plan = None]) check
    a statement's round, bits and error envelopes, the error one through
    the one-sided 95% Wilson lower bound; faulted cells check the
    wrapper's [failures = 0 || rate <= attempts * 2^-check_bits]. *)
type gate = {
  protocol : string;
  plan : string option;  (** faulted cells only; reported as [kind] clean/faulted *)
  k : int;
  trials : int;
  failures : int;
  degraded : int;  (** 0 on clean cells *)
  error_limit : float;
  error_lower95 : float;  (** Wilson 95% bounds on the true rate *)
  error_upper95 : float;
  error_ok : bool;
  rounds_max : int;
  rounds_limit : int option;  (** clean cells only *)
  rounds_ok : bool;
  bits : bits_summary;
  bits_limit : float option;  (** clean cells only: envelope on the mean *)
  bits_ok : bool;
  pass : bool;  (** all three checks *)
}

(** [gate ~protocol ?plan ~k ~error_limit ?rounds_limit ?bits_limit t]
    scores a finished tally; a [plan] makes it a faulted cell. *)
val gate :
  protocol:string ->
  ?plan:string ->
  k:int ->
  error_limit:float ->
  ?rounds_limit:int ->
  ?bits_limit:float ->
  tally ->
  gate

val json_of_gate : gate -> Stats.Json.t

(** The gate cells as a table under [title]. *)
val gate_table : title:string -> gate list -> string

(** One line per cell that failed an envelope (empty iff all pass). *)
val gate_violations : gate list -> string list

(** {1 Reports} *)

(** The report envelope
    [{bench?, reproduce?, config, cells, <extra>...}]. *)
val report_json :
  ?bench:string ->
  ?reproduce:string ->
  config:(string * Stats.Json.t) list ->
  cells:Stats.Json.t list ->
  (string * Stats.Json.t) list ->
  Stats.Json.t

val json_of_link : Commsim.Faults.link -> Stats.Json.t

(** Named fault plans as one object keyed by plan name. *)
val json_of_plans : (string * Commsim.Faults.link) list -> Stats.Json.t

val json_strings : string list -> Stats.Json.t
val json_ints : int list -> Stats.Json.t

(** [table ~title columns rows] renders one row per element, one column
    per [(header, cell)] pair. *)
val table : title:string -> (string * ('row -> string)) list -> 'row list -> string
