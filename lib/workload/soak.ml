type config = {
  seed : int;
  trials : int;
  k : int;
  universe_bits : int;
  overlap : int;
  protocols : string list;
  plans : (string * Commsim.Faults.link) list;
  budget_attempts : int;
  check_bits : int;
}

let plan_catalogue =
  let open Commsim.Faults in
  [
    ("clean", clean_link);
    ("flip-1e-4", flipping 1e-4);
    ("flip-1e-3", flipping 1e-3);
    ("trunc-1e-2", { clean_link with trunc = 1e-2 });
    ("dup-5e-2", { clean_link with dup = 5e-2 });
    ("drop-2e-2", dropping 2e-2);
    ("storm", { flip = 2e-4; trunc = 5e-3; dup = 2e-2; drop = 1e-2 });
  ]

let default =
  {
    seed = 2014;
    trials = 1000;
    k = 24;
    universe_bits = 20;
    overlap = 12;
    protocols = Campaign.resilient_protocols;
    plans = plan_catalogue;
    (* Attempts beyond ~8 are wasted work for message-heavy protocols under
       heavy flipping: per-attempt survival is low enough there that the
       exact deterministic fallback is the cheaper road to the answer. *)
    budget_attempts = 8;
    check_bits = 32;
  }

let smoke =
  {
    default with
    trials = 40;
    k = 16;
    overlap = 8;
    protocols = [ "trivial"; "tree" ];
    plans =
      List.filter (fun (name, _) -> List.mem name [ "clean"; "flip-1e-3"; "drop-2e-2" ]) plan_catalogue;
    budget_attempts = 8;
  }

type cell = {
  protocol : string;
  plan : string;
  trials : int;
  exact : int;
  verified : int;
  degraded : int;
  attempts_total : int;
  rejected : int;
  lost : int;
  crashed : int;
  mean_bits : float;
  baseline_bits : float;
  overhead : float;
  error_rate : float;
  error_upper95 : float;
  error_bound : float;
  within_bound : bool;
  flipped_bits : int;
  truncated : int;
  duplicated : int;
  dropped : int;
  first_failure : string option;
}

type report = { config : config; cells : cell list }

(* One (protocol x plan) cell on the shared runner.  The stream label
   ["soak/<protocol>/<plan>"] predates the engine; keeping it means any
   soak JSON ever published reproduces bit for bit. *)
let run_cell ?domains ?sink (config : config) base ~cell ~trials link =
  Campaign.run_cell ?domains ?sink Campaign.tally ~campaign:"soak" ~cell ~seed:config.seed ~trials
    (Campaign.resilient_step base ~link ~budget_attempts:config.budget_attempts
       ~check_bits:config.check_bits ~universe_bits:config.universe_bits ~k:config.k
       ~overlap:config.overlap)

let cell_of (config : config) ~protocol ~plan ~baseline_bits (t : Campaign.tally) =
  let mean_bits = Campaign.mean_bits t in
  let error_rate = float_of_int t.failures /. float_of_int config.trials in
  let error_bound =
    Campaign.error_bound ~budget_attempts:config.budget_attempts ~check_bits:config.check_bits
  in
  {
    protocol;
    plan;
    trials = config.trials;
    exact = config.trials - t.failures;
    verified = t.verified;
    degraded = t.degraded;
    attempts_total = t.attempts;
    rejected = t.rejected;
    lost = t.lost;
    crashed = t.crashed;
    mean_bits;
    baseline_bits;
    overhead = (if baseline_bits > 0.0 then mean_bits /. baseline_bits else Float.nan);
    error_rate;
    error_upper95 = Stats.Binomial.upper95 ~failures:t.failures ~trials:config.trials;
    error_bound;
    within_bound = t.failures = 0 || error_rate <= error_bound;
    flipped_bits = t.damage.Commsim.Faults.flipped_bits;
    truncated = t.damage.Commsim.Faults.truncated_messages;
    duplicated = t.damage.Commsim.Faults.duplicated_messages;
    dropped = t.damage.Commsim.Faults.dropped_messages;
    first_failure = t.first_failure;
  }

let run ?domains ?sink (config : config) =
  let cells =
    List.concat_map
      (fun protocol ->
        let base = Campaign.resilient_base protocol ~k:config.k in
        (* Fault-free cost of the wrapper on this protocol — the
           denominator of the overhead column.  A few dozen trials pin
           the mean well enough. *)
        let baseline_bits =
          lazy
            (Campaign.mean_bits
               (run_cell ?domains config base ~cell:(protocol ^ "/baseline")
                  ~trials:(min config.trials 64) Commsim.Faults.clean_link))
        in
        List.map
          (fun (plan, link) () ->
            let t =
              run_cell ?domains ?sink config base ~cell:(protocol ^ "/" ^ plan)
                ~trials:config.trials link
            in
            cell_of config ~protocol ~plan ~baseline_bits:(Lazy.force baseline_bits) t)
          config.plans)
      config.protocols
  in
  {
    config;
    cells = Campaign.matrix ~trials:config.trials ~ks:[ config.k ] ~overlap:config.overlap cells;
  }

let json_of_cell c =
  Stats.Json.Obj
    [
      ("protocol", Stats.Json.Str c.protocol);
      ("plan", Stats.Json.Str c.plan);
      ("trials", Stats.Json.Int c.trials);
      ("exact", Stats.Json.Int c.exact);
      ("verified", Stats.Json.Int c.verified);
      ("degraded", Stats.Json.Int c.degraded);
      ("attempts_total", Stats.Json.Int c.attempts_total);
      ("rejected", Stats.Json.Int c.rejected);
      ("lost", Stats.Json.Int c.lost);
      ("crashed", Stats.Json.Int c.crashed);
      ("mean_bits", Stats.Json.Float c.mean_bits);
      ("baseline_bits", Stats.Json.Float c.baseline_bits);
      ("overhead", Stats.Json.Float c.overhead);
      ("error_rate", Stats.Json.Float c.error_rate);
      ("error_upper95", Stats.Json.Float c.error_upper95);
      ("error_bound", Stats.Json.Float c.error_bound);
      ("within_bound", Stats.Json.Bool c.within_bound);
      ( "injected",
        Stats.Json.Obj
          [
            ("flipped_bits", Stats.Json.Int c.flipped_bits);
            ("truncated", Stats.Json.Int c.truncated);
            ("duplicated", Stats.Json.Int c.duplicated);
            ("dropped", Stats.Json.Int c.dropped);
          ] );
      ( "first_failure",
        match c.first_failure with None -> Stats.Json.Null | Some d -> Stats.Json.Str d );
    ]

let to_json ?reproduce report =
  let c = report.config in
  Campaign.report_json ?reproduce
    ~config:
      [
        ("seed", Stats.Json.Int c.seed);
        ("trials", Stats.Json.Int c.trials);
        ("k", Stats.Json.Int c.k);
        ("universe_bits", Stats.Json.Int c.universe_bits);
        ("overlap", Stats.Json.Int c.overlap);
        ("protocols", Campaign.json_strings c.protocols);
        ("plans", Campaign.json_of_plans c.plans);
        ("budget_attempts", Stats.Json.Int c.budget_attempts);
        ("check_bits", Stats.Json.Int c.check_bits);
      ]
    ~cells:(List.map json_of_cell report.cells)
    []

let summary report =
  Campaign.table ~title:"Adversarial-channel soak"
    [
      ("protocol", fun c -> c.protocol);
      ("plan", fun c -> c.plan);
      ("exact", fun c -> Printf.sprintf "%d/%d" c.exact c.trials);
      ("verified", fun c -> string_of_int c.verified);
      ("degraded", fun c -> string_of_int c.degraded);
      ( "att/trial",
        fun c -> Printf.sprintf "%.2f" (float_of_int c.attempts_total /. float_of_int c.trials) );
      ("overhead", fun c -> Printf.sprintf "%.2fx" c.overhead);
      ("err<=95%", fun c -> Printf.sprintf "%.2g" c.error_upper95);
      ("bound ok", fun c -> if c.within_bound then "yes" else "NO");
    ]
    report.cells

let violations report =
  List.filter_map
    (fun c ->
      if c.within_bound then None
      else
        Some
          (Printf.sprintf "%s/%s exceeded its error bound%s" c.protocol c.plan
             (match c.first_failure with
             | None -> ""
             | Some d -> Printf.sprintf " (first carried failure: %s)" d)))
    report.cells
