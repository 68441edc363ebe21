type campaign = {
  link : Commsim.Faults.link;
  interrupt : bool;
  deadline_override : int option;
}

type config = {
  seed : int;
  trials : int;
  k : int;
  universe_bits : int;
  overlap : int;
  protocols : string list;
  campaigns : (string * campaign) list;
  deadline_bits : int;
  rung_attempts : int;
  check_bits0 : int;
  backoff_base : int;
  backoff_cap : int;
}

let campaign_catalogue =
  let open Commsim.Faults in
  let steady link = { link; interrupt = false; deadline_override = None } in
  [
    ("clean", steady clean_link);
    ("corruption-storm", steady { clean_link with flip = 2e-3; trunc = 1e-2 });
    ("stall-burst", steady (dropping 0.12));
    ("flap", steady { clean_link with drop = 5e-2; dup = 5e-2 });
    ( "crash-resume",
      {
        link = { flip = 5e-4; trunc = 5e-3; dup = 1e-2; drop = 4e-2 };
        interrupt = true;
        deadline_override = None;
      } );
    ("stall-crash", { link = dropping 0.12; interrupt = true; deadline_override = None });
    ( "deadline-squeeze",
      { link = dropping 0.15; interrupt = false; deadline_override = Some 2_500 } );
  ]

let default =
  {
    seed = 2014;
    trials = 200;
    k = 24;
    universe_bits = 20;
    overlap = 12;
    protocols = [ "trivial"; "tree"; "bucket" ];
    campaigns = campaign_catalogue;
    deadline_bits = 400_000;
    rung_attempts = 3;
    check_bits0 = 32;
    backoff_base = 64;
    backoff_cap = 4096;
  }

let smoke =
  {
    default with
    trials = 12;
    k = 16;
    overlap = 8;
    protocols = [ "trivial"; "tree" ];
    campaigns =
      List.filter
        (fun (name, _) ->
          List.mem name [ "corruption-storm"; "stall-burst"; "crash-resume"; "deadline-squeeze" ])
        campaign_catalogue;
    rung_attempts = 2;
    backoff_base = 32;
  }

type cell = {
  protocol : string;
  campaign : string;
  trials : int;
  completed : int;
  degraded : int;
  failed_safe : int;
  resumed : int;  (* trials where an interrupt/restore cycle was exercised *)
  resumed_identical : int;  (* ... and replayed byte-identically *)
  wrong : int;  (* exact results (completed/degraded) that were not S ∩ T *)
  attempts_total : int;
  rejected : int;
  stalled : int;
  crashed : int;
  deadline : int;
  mean_spent_bits : float;
  mean_backoff_ticks : float;
  wasted_bits_total : int;
  mean_wasted_bits : float;
  recovered : int;  (* sessions that completed after >= 1 failure *)
  mean_recovery_ticks : float;  (* event time burned before the winning attempt *)
}

type report = { config : config; cells : cell list }

let session_config (config : config) (camp : campaign) ~protocol ~plan ~seed =
  {
    Session.Machine.seed;
    protocol;
    k = config.k;
    universe_bits = config.universe_bits;
    plan;
    deadline_bits =
      (match camp.deadline_override with Some d -> d | None -> config.deadline_bits);
    rung_attempts = config.rung_attempts;
    check_bits0 = config.check_bits0;
    backoff_base = config.backoff_base;
    backoff_cap = config.backoff_cap;
  }

(* Per-cell cap on harvested post-mortems: the dumps are diagnostic
   samples, not a census, and the cap keeps the telemetry stream bounded
   under a pathological campaign. *)
let postmortem_cap = 2

(* Per-chunk accumulator.  Every session report goes into a private fleet
   registry — the very record the telemetry stream publishes — and the
   cell's outcome counts and spend totals are read back from the merged
   registry; beside it sits only what the registry does not carry.
   [resumed]/[resumed_identical] count the interrupt/restore cycles
   (exercised only in interrupting campaigns, and only when the session
   survived past its first step). *)
type acc = {
  registry : Obsv.Metrics.registry;
  mutable resumed : int;
  mutable resumed_identical : int;
  mutable recovered : int;  (* sessions that completed after >= 1 failure *)
  mutable recovery_ticks : int;
  mutable postmortems : (int * Stats.Json.t) list;  (* the first [postmortem_cap], by trial *)
}

let accumulator =
  {
    Campaign.init =
      (fun () ->
        {
          registry = Obsv.Metrics.create ();
          resumed = 0;
          resumed_identical = 0;
          recovered = 0;
          recovery_ticks = 0;
          postmortems = [];
        });
    merge =
      (fun a b ->
        Obsv.Metrics.merge_into ~into:a.registry b.registry;
        a.resumed <- a.resumed + b.resumed;
        a.resumed_identical <- a.resumed_identical + b.resumed_identical;
        a.recovered <- a.recovered + b.recovered;
        a.recovery_ticks <- a.recovery_ticks + b.recovery_ticks;
        a.postmortems <-
          List.filteri (fun i _ -> i < postmortem_cap) (a.postmortems @ b.postmortems);
        a);
    telemetry = (fun ~campaign:_ a -> (a.registry, a.postmortems));
  }

(* Everything the resumed run must replay bit-for-bit.  [resumes] is
   excluded by construction: it is the one field that legitimately differs
   between the interrupted and the uninterrupted execution. *)
let replay_view (r : Session.Machine.report) =
  ( Session.Machine.outcome_name r.Session.Machine.outcome,
    Session.Machine.result_of r.Session.Machine.outcome,
    r.Session.Machine.attempts,
    List.map
      (fun (k, d) -> (Session.Machine.kind_name k, d))
      r.Session.Machine.failures,
    r.Session.Machine.final_width,
    r.Session.Machine.ledger )

(* One trial, folded into the chunk accumulator.  Under telemetry
   ([flight]) the session runs with a flight recorder. *)
let step ~flight (config : config) (camp : campaign) ~protocol acc i rng =
  let universe = 1 lsl config.universe_bits in
  let pair =
    Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "inputs")
      ~universe ~size_s:config.k ~size_t:config.k ~overlap:config.overlap
  in
  let plan =
    Commsim.Faults.uniform
      ~seed:(Prng.Rng.bits (Prng.Rng.with_label rng "plan") ~width:30)
      camp.link
  in
  let session_seed = Prng.Rng.bits (Prng.Rng.with_label rng "session") ~width:30 in
  let cfg = session_config config camp ~protocol ~plan ~seed:session_seed in
  let s = pair.Setgen.s and t = pair.Setgen.t in
  let checkpoints = ref [] in
  let on_checkpoint ck = checkpoints := ck :: !checkpoints in
  let recorder = if flight then Obsv.Recorder.create () else Obsv.Recorder.disabled in
  let report =
    Obsv.Recorder.with_recorder recorder (fun () -> Session.Machine.run ~on_checkpoint cfg ~s ~t)
  in
  let report =
    if not camp.interrupt then report
    else
      match List.rev !checkpoints with
      | [] -> report
      | boundaries -> (
          (* Crash mid-session at a seeded checkpoint boundary: serialize the
             snapshot, reparse it, and resume.  The resumed report must
             replay the uninterrupted one exactly. *)
          acc.resumed <- acc.resumed + 1;
          let pick =
            Prng.Rng.int (Prng.Rng.with_label rng "interrupt") (List.length boundaries)
          in
          let snapshot = Session.Checkpoint.to_string (List.nth boundaries pick) in
          let continued =
            match Session.Checkpoint.of_string snapshot with
            | Error _ -> None
            | Ok ck -> (
                match Session.Machine.resume cfg ck ~s ~t with
                | Error _ -> None
                | Ok r -> Some r)
          in
          match continued with
          | None -> report
          | Some r ->
              if replay_view r = replay_view report then
                acc.resumed_identical <- acc.resumed_identical + 1;
              r)
  in
  let wrong =
    match Session.Machine.result_of report.Session.Machine.outcome with
    | Some result -> not (Iset.equal result (Iset.inter s t))
    | None -> false
  in
  Telemetry.record_session acc.registry ~deadline_bits:cfg.Session.Machine.deadline_bits report
    ~wrong;
  match report.Session.Machine.outcome with
  | Session.Machine.Completed _ ->
      if report.Session.Machine.failures <> [] then begin
        (* Recovered: event time (wasted bits + backoff) burned before
           the winning attempt. *)
        acc.recovered <- acc.recovered + 1;
        acc.recovery_ticks <-
          acc.recovery_ticks + report.Session.Machine.ledger.Session.Machine.wasted_bits
          + report.Session.Machine.ledger.Session.Machine.backoff_ticks
      end
  | o ->
      (* Post-mortems only for non-Completed endings: the happy path never
         pays for dump assembly (the recorder itself is a fixed ring). *)
      if flight && List.length acc.postmortems < postmortem_cap then
        acc.postmortems <-
          acc.postmortems
          @ [
              ( i,
                Obsv.Recorder.post_mortem_json ~outcome:(Session.Machine.outcome_name o) recorder
              );
            ]

let cell_of ~protocol ~campaign ~trials acc =
  let count = Obsv.Metrics.counter_value acc.registry in
  let total name =
    match Obsv.Metrics.sketch_of acc.registry name with Some s -> Obsv.Sketch.sum s | None -> 0
  in
  let mean name = float_of_int (total name) /. float_of_int trials in
  let outcomes name = count (Obsv.Health.k_outcome name) in
  let failures kind = count (Obsv.Health.k_failure (Session.Machine.kind_name kind)) in
  {
    protocol;
    campaign;
    trials;
    completed = outcomes "completed";
    degraded = outcomes "degraded";
    failed_safe = outcomes "failed_safe";
    resumed = acc.resumed;
    resumed_identical = acc.resumed_identical;
    wrong = count Obsv.Health.k_wrong;
    attempts_total = count Obsv.Health.k_attempts;
    rejected = failures Session.Machine.Rejected;
    stalled = failures Session.Machine.Stalled;
    crashed = failures Session.Machine.Crashed;
    deadline = failures Session.Machine.Deadline;
    mean_spent_bits = mean Obsv.Health.k_spent_bits;
    mean_backoff_ticks = mean Obsv.Health.k_backoff_ticks;
    wasted_bits_total = total Obsv.Health.k_wasted_bits;
    mean_wasted_bits = mean Obsv.Health.k_wasted_bits;
    recovered = acc.recovered;
    mean_recovery_ticks =
      (if acc.recovered = 0 then 0.0
       else float_of_int acc.recovery_ticks /. float_of_int acc.recovered);
  }

(* With a sink, every trial carries a flight recorder and the cell closes
   with its merged registry and first post-mortems. *)
let run ?domains ?sink ?on_cell (config : config) =
  let flight = sink <> None in
  let cells =
    List.concat_map
      (fun protocol ->
        List.map
          (fun (campaign, camp) () ->
            Campaign.run_cell ?domains ?sink accumulator ~campaign:"chaos"
              ~cell:(protocol ^ "/" ^ campaign) ~seed:config.seed ~trials:config.trials
              (step ~flight config camp ~protocol)
            |> cell_of ~protocol ~campaign ~trials:config.trials)
          config.campaigns)
      config.protocols
  in
  {
    config;
    cells =
      Campaign.matrix ~trials:config.trials ~ks:[ config.k ] ~overlap:config.overlap
        ?on_cell cells;
  }

let json_of_campaign (c : campaign) =
  Stats.Json.Obj
    ([ ("link", Campaign.json_of_link c.link); ("interrupt", Stats.Json.Bool c.interrupt) ]
    @
    match c.deadline_override with
    | None -> []
    | Some d -> [ ("deadline_bits", Stats.Json.Int d) ])

let json_of_cell c =
  Stats.Json.Obj
    [
      ("protocol", Stats.Json.Str c.protocol);
      ("campaign", Stats.Json.Str c.campaign);
      ("trials", Stats.Json.Int c.trials);
      ("completed", Stats.Json.Int c.completed);
      ("degraded", Stats.Json.Int c.degraded);
      ("failed_safe", Stats.Json.Int c.failed_safe);
      ("resumed", Stats.Json.Int c.resumed);
      ("resumed_identical", Stats.Json.Int c.resumed_identical);
      ("wrong", Stats.Json.Int c.wrong);
      ("attempts_total", Stats.Json.Int c.attempts_total);
      ("rejected", Stats.Json.Int c.rejected);
      ("stalled", Stats.Json.Int c.stalled);
      ("crashed", Stats.Json.Int c.crashed);
      ("deadline", Stats.Json.Int c.deadline);
      ("mean_spent_bits", Stats.Json.Float c.mean_spent_bits);
      ("mean_backoff_ticks", Stats.Json.Float c.mean_backoff_ticks);
      ("wasted_bits_total", Stats.Json.Int c.wasted_bits_total);
      ("mean_wasted_bits", Stats.Json.Float c.mean_wasted_bits);
      ("recovered", Stats.Json.Int c.recovered);
      ("mean_recovery_ticks", Stats.Json.Float c.mean_recovery_ticks);
    ]

let to_json ?reproduce report =
  let c = report.config in
  Campaign.report_json ~bench:"chaos" ?reproduce
    ~config:
      [
        ("seed", Stats.Json.Int c.seed);
        ("trials", Stats.Json.Int c.trials);
        ("k", Stats.Json.Int c.k);
        ("universe_bits", Stats.Json.Int c.universe_bits);
        ("overlap", Stats.Json.Int c.overlap);
        ("protocols", Campaign.json_strings c.protocols);
        ( "campaigns",
          Stats.Json.Obj (List.map (fun (name, camp) -> (name, json_of_campaign camp)) c.campaigns)
        );
        ("deadline_bits", Stats.Json.Int c.deadline_bits);
        ("rung_attempts", Stats.Json.Int c.rung_attempts);
        ("check_bits0", Stats.Json.Int c.check_bits0);
        ("backoff_base", Stats.Json.Int c.backoff_base);
        ("backoff_cap", Stats.Json.Int c.backoff_cap);
      ]
    ~cells:(List.map json_of_cell report.cells)
    []

(* The chaos invariant, as a checkable predicate: every session ended in a
   structured outcome (the taxonomy partitions the trials), no exact result
   was wrong, and every exercised resume replayed identically. *)
let invariant_violations report =
  List.concat_map
    (fun c ->
      let where = Printf.sprintf "%s/%s" c.protocol c.campaign in
      List.concat
        [
          (if c.completed + c.degraded + c.failed_safe <> c.trials then
             [
               Printf.sprintf "%s: outcomes %d+%d+%d do not partition %d trials" where
                 c.completed c.degraded c.failed_safe c.trials;
             ]
           else []);
          (if c.wrong > 0 then
             [ Printf.sprintf "%s: %d wrong exact result(s)" where c.wrong ]
           else []);
          (if c.resumed_identical <> c.resumed then
             [
               Printf.sprintf "%s: %d of %d resumed session(s) diverged" where
                 (c.resumed - c.resumed_identical) c.resumed;
             ]
           else []);
        ])
    report.cells

let summary report =
  Campaign.table ~title:"Chaos campaigns"
    [
      ("protocol", fun c -> c.protocol);
      ("campaign", fun c -> c.campaign);
      ("completed", fun c -> Printf.sprintf "%d/%d" c.completed c.trials);
      ("degraded", fun c -> string_of_int c.degraded);
      ("failsafe", fun c -> string_of_int c.failed_safe);
      ("resumed=id", fun c -> Printf.sprintf "%d=%d" c.resumed c.resumed_identical);
      ("wrong", fun c -> string_of_int c.wrong);
      ( "att/trial",
        fun c -> Printf.sprintf "%.2f" (float_of_int c.attempts_total /. float_of_int c.trials) );
      ("waste/trial", fun c -> Printf.sprintf "%.0f" c.mean_wasted_bits);
      ("recovery", fun c -> Printf.sprintf "%.0f" c.mean_recovery_ticks);
    ]
    report.cells
