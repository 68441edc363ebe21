(* The mega-sweep: one matrix run over protocol x k x fault-plan cells,
   streaming 10^6+ seeded trials per invocation through the {!Campaign}
   cell runner.  Two cell families share the gate-cell shape:

   - {e clean} cells are {!Conform.clean_cell}s (statement envelopes,
     promise-range instances) at mega-trial scale, gating the observed
     failure count against the paper's 1/poly(k) bound via the one-sided
     95% Wilson lower bound;
   - {e faulted} cells run the soak's faulted trial
     ({!Campaign.resilient_step}) with the wrapper's rare-event gate
     [failures = 0 || rate <= attempts * 2^-check_bits].

   Trials stream into per-chunk tallies (integer counts plus a mergeable
   {!Obsv.Sketch} — never a per-trial list), protocol instances come from
   a per-domain {!Engine.Instance_cache}, and codec buffers ride the
   {!Bitio.Pool} arenas.  Every merge is exact, so the report — and its
   JSON — is byte-identical at every domain count. *)

type config = {
  seed : int;
  trials_per_cell : int;
  universe_bits : int;
  protocols : string list;
  ks : int list;
  fault_protocols : string list;
  fault_ks : int list;
  plans : (string * Commsim.Faults.link) list;
  budget_attempts : int;
  check_bits : int;
}

(* Default matrix: 16 cells x 65_000 trials = 1_040_000 trials.  The
   clean protocol set covers the paper's headline ladder (Fact 3.5,
   R^(1), Theorem 3.1, Theorem 3.6 r=2); "trivial"/"basic"/"tree-r3"/
   "tree-log-star" stay on the conformance tier where 120 trials
   already saturate their (deterministic or slack) envelopes. *)
let default =
  {
    seed = 2014;
    trials_per_cell = 65_000;
    universe_bits = 20;
    protocols = [ "eq"; "one-round"; "bucket"; "tree-r2" ];
    ks = [ 16; 64; 256 ];
    fault_protocols = [ "trivial"; "bucket" ];
    fault_ks = [ 24 ];
    plans =
      List.filter
        (fun (name, _) -> List.mem name [ "flip-1e-3"; "drop-2e-2" ])
        Soak.plan_catalogue;
    budget_attempts = 8;
    check_bits = 32;
  }

(* Seconds-scale: 3 cells, 1_200 trials — the tier1 smoke matrix. *)
let smoke =
  {
    default with
    trials_per_cell = 400;
    protocols = [ "eq"; "bucket" ];
    ks = [ 16 ];
    fault_protocols = [ "trivial" ];
    fault_ks = [ 16 ];
    plans = List.filter (fun (name, _) -> name = "flip-1e-3") Soak.plan_catalogue;
  }

let total_trials (c : config) =
  let clean = List.length c.protocols * List.length c.ks in
  let faulted = List.length c.fault_protocols * List.length c.fault_ks * List.length c.plans in
  (clean + faulted) * c.trials_per_cell

type report = { config : config; cells : Campaign.gate list; total_trials : int; pass : bool }

let run ?domains ?sink (config : config) =
  let entries = List.map Conform.entry_of_name config.protocols in
  let clean =
    List.concat_map
      (fun entry ->
        List.map
          (fun k () ->
            Conform.clean_cell ?domains ?sink ~campaign:"sweep" ~seed:config.seed
              ~trials:config.trials_per_cell ~universe_bits:config.universe_bits entry ~k)
          config.ks)
      entries
  in
  let faulted =
    List.concat_map
      (fun protocol ->
        List.concat_map
          (fun k ->
            List.map
              (fun (plan, link) () ->
                let base = Campaign.resilient_base protocol ~k in
                Campaign.run_cell ?domains ?sink Campaign.tally ~campaign:"sweep"
                  ~cell:(Printf.sprintf "%s/k%d/%s" protocol k plan)
                  ~seed:config.seed ~trials:config.trials_per_cell
                  (Campaign.resilient_step base ~link ~budget_attempts:config.budget_attempts
                     ~check_bits:config.check_bits ~universe_bits:config.universe_bits ~k
                     ~overlap:(k / 2))
                |> Campaign.gate ~protocol ~plan ~k
                     ~error_limit:
                       (Campaign.error_bound ~budget_attempts:config.budget_attempts
                          ~check_bits:config.check_bits))
              config.plans)
          config.fault_ks)
      config.fault_protocols
  in
  let cells =
    Campaign.matrix ~trials:config.trials_per_cell ~ks:(config.ks @ config.fault_ks)
      (clean @ faulted)
  in
  {
    config;
    cells;
    total_trials = List.fold_left (fun acc (c : Campaign.gate) -> acc + c.trials) 0 cells;
    pass = List.for_all (fun (c : Campaign.gate) -> c.pass) cells;
  }

let to_json ?reproduce (report : report) =
  let c = report.config in
  Campaign.report_json ~bench:"sweep" ?reproduce
    ~config:
      [
        ("seed", Stats.Json.Int c.seed);
        ("trials_per_cell", Stats.Json.Int c.trials_per_cell);
        ("universe_bits", Stats.Json.Int c.universe_bits);
        ("protocols", Campaign.json_strings c.protocols);
        ("ks", Campaign.json_ints c.ks);
        ("fault_protocols", Campaign.json_strings c.fault_protocols);
        ("fault_ks", Campaign.json_ints c.fault_ks);
        ("plans", Campaign.json_of_plans c.plans);
        ("budget_attempts", Stats.Json.Int c.budget_attempts);
        ("check_bits", Stats.Json.Int c.check_bits);
      ]
    ~cells:(List.map Campaign.json_of_gate report.cells)
    [ ("total_trials", Stats.Json.Int report.total_trials); ("pass", Stats.Json.Bool report.pass) ]
