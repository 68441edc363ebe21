(* The fleet-telemetry sink: one metrics registry fed per-session fleet
   aggregates (outcome counters, bit-spend sketches), an event-time
   snapshot stream, and the post-mortems harvested from per-session
   flight recorders.  The sink is filled sequentially, in deterministic
   trial order, from session reports that are themselves byte-identical
   at any domain count — so the emitted JSONL stream is too.

   The overhead bench at the bottom times telemetry on against off; its
   clock reads go through Obsv.Window, and everything it gates on besides
   the ratio is seeded and replayable. *)

type sink = {
  registry : Obsv.Metrics.registry;
  mutable sessions : int;  (* event-time axis: sessions recorded so far *)
  mutable snapshots_rev : Obsv.Snapshot.t list;
  mutable postmortems_rev : (int * Stats.Json.t) list;  (* (at, dump) *)
}

let create_sink () =
  { registry = Obsv.Metrics.create (); sessions = 0; snapshots_rev = []; postmortems_rev = [] }

(* Fold one session report into a fleet registry under the Obsv.Health
   metric-name contract.  The deadline gauge keeps the maximum across
   sessions explicitly: gauges overwrite within one registry, and
   "largest admitted budget" is the denominator the burn SLO wants. *)
let record_session registry ~deadline_bits (r : Session.Machine.report) ~wrong =
  Obsv.Metrics.with_registry registry (fun () ->
      Obsv.Metrics.incr Obsv.Health.k_sessions;
      Obsv.Metrics.incr
        (Obsv.Health.k_outcome (Session.Machine.outcome_name r.Session.Machine.outcome));
      if wrong then Obsv.Metrics.incr Obsv.Health.k_wrong;
      if r.Session.Machine.attempts > 0 then
        Obsv.Metrics.incr ~by:r.Session.Machine.attempts Obsv.Health.k_attempts;
      if r.Session.Machine.resumes > 0 then
        Obsv.Metrics.incr ~by:r.Session.Machine.resumes Obsv.Health.k_resumes;
      List.iter
        (fun (kind, _) ->
          Obsv.Metrics.incr (Obsv.Health.k_failure (Session.Machine.kind_name kind)))
        r.Session.Machine.failures;
      let ledger = r.Session.Machine.ledger in
      Obsv.Metrics.observe Obsv.Health.k_spent_bits ledger.Session.Machine.spent_bits;
      Obsv.Metrics.observe Obsv.Health.k_backoff_ticks ledger.Session.Machine.backoff_ticks;
      Obsv.Metrics.observe Obsv.Health.k_wasted_bits ledger.Session.Machine.wasted_bits;
      let prev =
        match Obsv.Metrics.gauge_value registry Obsv.Health.k_deadline_bits with
        | Some g -> g
        | None -> 0
      in
      Obsv.Metrics.set_gauge Obsv.Health.k_deadline_bits (max prev deadline_bits))

let add_postmortem sink ~at json = sink.postmortems_rev <- (at, json) :: sink.postmortems_rev

let snapshot sink =
  let seq = List.length sink.snapshots_rev in
  sink.snapshots_rev <- Obsv.Snapshot.take ~seq ~at:sink.sessions sink.registry :: sink.snapshots_rev

let snapshots sink = List.rev sink.snapshots_rev
let last_snapshot sink = match sink.snapshots_rev with [] -> None | s :: _ -> Some s
let postmortems sink = List.rev sink.postmortems_rev

(* The stream: snapshot lines (each followed by its derived-rates line)
   merged with post-mortem lines on the shared event-time axis;
   post-mortems sort before the snapshot that first covers them. *)
let jsonl sink =
  let rec merge pms snaps prev acc =
    match (pms, snaps) with
    | (a, j) :: prest, s :: _ when a <= s.Obsv.Snapshot.at ->
        merge prest snaps prev (Stats.Json.to_string j :: acc)
    | _, s :: srest ->
        let acc = Stats.Json.to_string (Obsv.Snapshot.to_json s) :: acc in
        let acc =
          match prev with
          | None -> acc
          | Some p -> Stats.Json.to_string (Obsv.Snapshot.rates_json ~prev:p s) :: acc
        in
        merge pms srest (Some s) acc
    | (_, j) :: prest, [] -> merge prest [] prev (Stats.Json.to_string j :: acc)
    | [], [] -> List.rev acc
  in
  merge (postmortems sink) (snapshots sink) None []

(* Close one campaign cell: fold its registry into the fleet registry
   (counters add, sketches merge, gauges keep the maximum), stamp each
   post-mortem at the event time its trial ended, advance event time by
   the cell's trials and snapshot. *)
let record_cell sink ~trials ?(postmortems = []) registry =
  Obsv.Metrics.merge_into ~into:sink.registry registry;
  List.iter (fun (i, dump) -> add_postmortem sink ~at:(sink.sessions + i + 1) dump) postmortems;
  sink.sessions <- sink.sessions + trials;
  snapshot sink

let health ?slos sink =
  match last_snapshot sink with
  | Some snap -> Some (Obsv.Health.evaluate ?slos snap)
  | None -> None

(* ---------- overhead bench ---------- *)

type overhead_config = { seed : int; k : int; universe_bits : int; sessions : int }

let overhead_default = { seed = 2014; k = 1024; universe_bits = 16; sessions = 24 }
let overhead_smoke = { overhead_default with k = 256; sessions = 8 }

type pass = { ns_per_session : float; spent_bits : int; completed : int }

type overhead_report = {
  config : overhead_config;
  off : pass;
  on_ : pass;
  ratio : float;
  deterministic_match : bool;
}

(* The seeded sessions of one overhead run, built once; the returned
   [pass ~telemetry] times one telemetry-on or telemetry-off sweep over
   them.  Both kinds of pass verify the result against the precomputed
   truth, so the only asymmetry between them is the telemetry itself:
   ambient fleet registry, a per-session flight recorder, and the
   per-session sketch records — exactly the hot-path cost
   BENCH_telemetry.json gates. *)
let overhead_passes (c : overhead_config) =
  let stream = Engine.Seed_stream.create ~base:c.seed ~label:"telemetry/overhead" in
  let universe = 1 lsl c.universe_bits in
  let plan = Commsim.Faults.uniform ~seed:c.seed Commsim.Faults.clean_link in
  let pairs =
    Array.init c.sessions (fun i ->
        let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
        Setgen.pair_with_overlap
          (Prng.Rng.with_label rng "inputs")
          ~universe ~size_s:c.k ~size_t:c.k ~overlap:(c.k / 2))
  in
  let truths = Array.map (fun p -> Iset.inter p.Setgen.s p.Setgen.t) pairs in
  let cfgs =
    Array.init c.sessions (fun i ->
        let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
        let seed = Prng.Rng.bits (Prng.Rng.with_label rng "session") ~width:30 in
        let base = Session.Machine.default ~k:c.k ~plan in
        {
          base with
          Session.Machine.seed;
          universe_bits = c.universe_bits;
          (* Machine.default scales the fingerprint with k, but the session
             layer caps verification width at 512 bits; clamp so the bench
             runs at k = 1024. *)
          check_bits0 = min 512 base.Session.Machine.check_bits0;
        })
  in
  let spent = ref 0 in
  let completed = ref 0 in
  let run_one sink i =
    let pair = pairs.(i) in
    let cfg = cfgs.(i) in
    let report =
      match sink with
      | None -> Session.Machine.run cfg ~s:pair.Setgen.s ~t:pair.Setgen.t
      | Some sink ->
          let recorder = Obsv.Recorder.create () in
          let report =
            Obsv.Recorder.with_recorder recorder (fun () ->
                Session.Machine.run cfg ~s:pair.Setgen.s ~t:pair.Setgen.t)
          in
          let wrong =
            match Session.Machine.result_of report.Session.Machine.outcome with
            | Some result -> not (Iset.equal result truths.(i))
            | None -> false
          in
          record_session sink.registry ~deadline_bits:cfg.Session.Machine.deadline_bits report
            ~wrong;
          sink.sessions <- sink.sessions + 1;
          (match report.Session.Machine.outcome with
          | Session.Machine.Completed _ -> ()
          | o ->
              add_postmortem sink ~at:sink.sessions
                (Obsv.Recorder.post_mortem_json ~outcome:(Session.Machine.outcome_name o)
                   recorder));
          report
    in
    (match Session.Machine.result_of report.Session.Machine.outcome with
    | Some result -> if not (Iset.equal result truths.(i)) then failwith "overhead: wrong result"
    | None -> ());
    (match report.Session.Machine.outcome with
    | Session.Machine.Completed _ -> incr completed
    | _ -> ());
    spent :=
      !spent + report.Session.Machine.ledger.Session.Machine.spent_bits
  in
  let sweep sink =
    match sink with
    | None ->
        for i = 0 to c.sessions - 1 do
          run_one None i
        done
    | Some s ->
        Obsv.Metrics.with_registry s.registry (fun () ->
            for i = 0 to c.sessions - 1 do
              run_one sink i
            done);
        snapshot s
  in
  (* Warm-up session (codec caches, pools) outside the timed windows. *)
  run_one None 0;
  fun ~telemetry ->
    spent := 0;
    completed := 0;
    let sink = if telemetry then Some (create_sink ()) else None in
    let (), w = Obsv.Window.measure (fun () -> sweep sink) in
    {
      ns_per_session = float_of_int w.ns /. float_of_int c.sessions;
      spent_bits = !spent;
      completed = !completed;
    }

(* Off/on pairs per overhead run.  One off window then one on window read
   anywhere from 0.95x to 1.3x on an unchanged build, so the ratio is the
   median over several pairs, and the pairs alternate which side runs
   first so neither side always meets the warmer caches. *)
let overhead_pairs = 8

let run_overhead (c : overhead_config) =
  if c.sessions < 1 then invalid_arg "Telemetry.run_overhead: sessions";
  let pass = overhead_passes c in
  let pairs =
    List.init overhead_pairs (fun p ->
        if p mod 2 = 0 then
          let off = pass ~telemetry:false in
          (off, pass ~telemetry:true)
        else
          let on_ = pass ~telemetry:true in
          (pass ~telemetry:false, on_))
  in
  let median xs = (Stats.Summary.of_floats xs).Stats.Summary.p50 in
  let side passes =
    { (List.hd passes) with ns_per_session = median (List.map (fun p -> p.ns_per_session) passes) }
  in
  let offs = List.map fst pairs and ons = List.map snd pairs in
  let off = side offs in
  {
    config = c;
    off;
    on_ = side ons;
    ratio = median (List.map (fun (off, on_) -> on_.ns_per_session /. off.ns_per_session) pairs);
    deterministic_match =
      List.for_all
        (fun p -> p.spent_bits = off.spent_bits && p.completed = off.completed)
        (offs @ ons);
  }

let pass_json p =
  Stats.Json.Obj
    [
      ("ns_per_session", Stats.Json.Float p.ns_per_session);
      ("spent_bits", Stats.Json.Int p.spent_bits);
      ("completed", Stats.Json.Int p.completed);
    ]

let overhead_json ?reproduce r =
  let c = r.config in
  Stats.Json.Obj
    (List.concat
       [
         [ ("bench", Stats.Json.Str "telemetry") ];
         (match reproduce with Some cmd -> [ ("reproduce", Stats.Json.Str cmd) ] | None -> []);
         [
           ( "config",
             Stats.Json.Obj
               [
                 ("seed", Stats.Json.Int c.seed);
                 ("k", Stats.Json.Int c.k);
                 ("universe_bits", Stats.Json.Int c.universe_bits);
                 ("sessions", Stats.Json.Int c.sessions);
               ] );
           ("pairs", Stats.Json.Int overhead_pairs);
           ("off", pass_json r.off);
           ("on", pass_json r.on_);
           ("ratio", Stats.Json.Float r.ratio);
           ("deterministic_match", Stats.Json.Bool r.deterministic_match);
         ];
       ])

let overhead_summary r =
  Printf.sprintf
    "telemetry overhead: k=%d sessions=%d  off %.0f ns/session, on %.0f ns/session, ratio \
     %.3fx (median of %d alternating pairs), deterministic fields %s"
    r.config.k r.config.sessions r.off.ns_per_session r.on_.ns_per_session r.ratio overhead_pairs
    (if r.deterministic_match then "identical" else "DIVERGED")

let overhead_violations ?max_ratio r =
  (if r.deterministic_match then []
   else [ "deterministic session fields diverged between passes" ])
  @
  match max_ratio with
  | Some bound when r.ratio > bound ->
      [ Printf.sprintf "overhead ratio %.3f exceeds bound %.3f" r.ratio bound ]
  | _ -> []
