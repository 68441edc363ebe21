open Intersect

(* The mega-sweep: one matrix run over protocol x k x fault-plan cells,
   streaming 10^6+ seeded trials per invocation through the engine's
   chunked fold.  Two cell families share the runner:

   - {e clean} cells reuse the {!Conform} registry (statement envelopes,
     promise-range instances) at mega-trial scale, gating the observed
     failure count against the paper's 1/poly(k) bound via the one-sided
     95% Wilson lower bound;
   - {e faulted} cells reuse the {!Soak} semantics (Resilient wrapper
     over an adversarial link) with the soak's rare-event gate
     [failures = 0 || rate <= attempts * 2^-check_bits].

   Affordability is the engine work from this PR: trials stream through
   {!Engine.Pool.fold} into per-chunk accumulators (an int triple plus a
   mergeable {!Obsv.Sketch} — never a per-trial list), protocol
   instances come from a per-domain {!Engine.Instance_cache}, and codec
   buffers ride the {!Bitio.Pool} arenas.  Every accumulator merge is
   exact integer arithmetic or bucket-pointwise sketch addition, so the
   report — and its JSON — is byte-identical at every domain count. *)

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

(* The sketch is the cell's whole bits distribution: count/sum are exact
   ints, quantiles are bucket upper bounds — all merge-order free. *)
type bits_summary = {
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  min_bits : int;
  max_bits : int;
}

type cell = {
  kind : string;  (* "clean" | "faulted" *)
  protocol : string;
  plan : string option;  (* faulted cells only *)
  k : int;
  trials : int;
  failures : int;
  degraded : int;  (* faulted cells only; 0 on clean cells *)
  error_limit : float;
  error_lower95 : float;
  error_upper95 : float;
  error_ok : bool;
  rounds_max : int;
  rounds_limit : int option;  (* clean cells only *)
  rounds_ok : bool;
  bits : bits_summary;
  bits_limit : float option;  (* clean cells only *)
  bits_ok : bool;
  pass : bool;
}

type report = { config : config; cells : cell list; total_trials : int; pass : bool }

let summarize_bits sketch =
  let count = Obsv.Sketch.count sketch in
  {
    mean = (if count = 0 then 0.0 else float_of_int (Obsv.Sketch.sum sketch) /. float_of_int count);
    p50 = Obsv.Sketch.p50 sketch;
    p90 = Obsv.Sketch.p90 sketch;
    p99 = Obsv.Sketch.p99 sketch;
    min_bits = (match Obsv.Sketch.min_value sketch with Some v -> v | None -> 0);
    max_bits = (match Obsv.Sketch.max_value sketch with Some v -> v | None -> 0);
  }

(* Per-chunk accumulator: three ints and a sketch.  [merge] is exact
   (adds, max, bucket-pointwise sketch add) and mutates its left
   argument, per the {!Engine.Pool.fold} contract. *)
type acc = {
  mutable failures : int;
  mutable rounds_max : int;
  mutable degraded : int;
  sketch : Obsv.Sketch.t;
}

let acc_init () = { failures = 0; rounds_max = 0; degraded = 0; sketch = Obsv.Sketch.create () }

let acc_merge a b =
  a.failures <- a.failures + b.failures;
  if b.rounds_max > a.rounds_max then a.rounds_max <- b.rounds_max;
  a.degraded <- a.degraded + b.degraded;
  Obsv.Sketch.merge_into ~into:a.sketch b.sketch;
  a

let wilson ~failures ~trials =
  Stats.Binomial.wilson ~failures ~trials ~z:1.96

(* ---------- clean cells: the Conform registry at mega scale ---------- *)

let clean_cell_acc ?domains (config : config) ~cache (entry : Conform.entry) ~k =
  let stream =
    Engine.Seed_stream.create ~base:config.seed
      ~label:(Printf.sprintf "sweep/%s/k%d" entry.Conform.name k)
  in
  let universe = 1 lsl config.universe_bits in
  let step acc i =
    let o =
      entry.Conform.trial ~cache (Engine.Seed_stream.trial_rng stream (i + 1)) ~universe ~k
    in
    if not o.Conform.t_exact then acc.failures <- acc.failures + 1;
    if o.Conform.t_rounds > acc.rounds_max then acc.rounds_max <- o.Conform.t_rounds;
    Obsv.Sketch.observe acc.sketch o.Conform.t_bits;
    acc
  in
  let acc =
    Engine.Pool.fold ?domains ~trials:config.trials_per_cell ~init:acc_init ~step
      ~merge:acc_merge ()
  in
  let trials = config.trials_per_cell in
  let bits = summarize_bits acc.sketch in
  let error_limit = entry.Conform.error_limit k in
  let error_lower95, error_upper95 = wilson ~failures:acc.failures ~trials in
  let rounds_limit = entry.Conform.rounds_limit k in
  let bits_limit = entry.Conform.bits_limit k in
  let error_ok = error_lower95 <= error_limit in
  let rounds_ok = acc.rounds_max <= rounds_limit in
  let bits_ok = bits.mean <= bits_limit in
  ( {
      kind = "clean";
      protocol = entry.Conform.name;
      plan = None;
      k;
      trials;
      failures = acc.failures;
      degraded = 0;
      error_limit;
      error_lower95;
      error_upper95;
      error_ok;
      rounds_max = acc.rounds_max;
      rounds_limit = Some rounds_limit;
      rounds_ok;
      bits;
      bits_limit = Some bits_limit;
      bits_ok;
      pass = error_ok && rounds_ok && bits_ok;
    },
    acc.sketch )

let clean_cell ?domains (config : config) (entry : Conform.entry) ~k =
  fst (clean_cell_acc ?domains config ~cache:(Engine.Instance_cache.create ()) entry ~k)

(* ---------- faulted cells: Soak semantics at mega scale ---------- *)

let base_of_name name ~k =
  match name with
  | "trivial" -> Resilient.trivial_base
  | "tree" -> Resilient.tree_base ~k ()
  | "bucket" -> Resilient.bucket_base ~k ()
  | _ ->
      invalid_arg
        ("Sweep: unknown fault protocol " ^ name ^ " (known: "
        ^ String.concat ", " Soak.protocol_names
        ^ ")")

let fault_cell_acc ?domains (config : config) ~bases ~proto_name ~k ~plan_name ~link =
  let stream =
    Engine.Seed_stream.create ~base:config.seed
      ~label:(Printf.sprintf "sweep/%s/k%d/%s" proto_name k plan_name)
  in
  let universe = 1 lsl config.universe_bits in
  let overlap = k / 2 in
  let key = proto_name ^ "/k" ^ string_of_int k in
  let step acc i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let base = Engine.Instance_cache.find bases ~key (fun () -> base_of_name proto_name ~k) in
    let pair =
      Setgen.pair_with_overlap
        (Prng.Rng.with_label rng "inputs")
        ~universe ~size_s:k ~size_t:k ~overlap
    in
    let plan =
      Commsim.Faults.uniform ~seed:(Prng.Rng.bits (Prng.Rng.with_label rng "plan") ~width:30) link
    in
    let report =
      Resilient.run base ~plan
        ~budget:{ Resilient.attempts = config.budget_attempts; bits = max_int }
        ~check_bits:config.check_bits
        (Prng.Rng.with_label rng "protocol")
        ~universe pair.Setgen.s pair.Setgen.t
    in
    let truth = Iset.inter pair.Setgen.s pair.Setgen.t in
    if not (Iset.equal report.Resilient.result truth) then acc.failures <- acc.failures + 1;
    if report.Resilient.degraded then acc.degraded <- acc.degraded + 1;
    let rounds = report.Resilient.cost.Commsim.Cost.rounds in
    if rounds > acc.rounds_max then acc.rounds_max <- rounds;
    Obsv.Sketch.observe acc.sketch report.Resilient.cost.Commsim.Cost.total_bits;
    acc
  in
  let acc =
    Engine.Pool.fold ?domains ~trials:config.trials_per_cell ~init:acc_init ~step
      ~merge:acc_merge ()
  in
  let trials = config.trials_per_cell in
  let bits = summarize_bits acc.sketch in
  (* The resilient wrapper's rare-event bound: an accepted fingerprint
     collision, probability <= attempts * 2^-check_bits per trial.  At
     check_bits = 32 a single failure in 10^6 trials is already a gate
     violation — exactly the regime the mega-sweep exists to watch. *)
  let error_limit =
    float_of_int config.budget_attempts *. (2.0 ** float_of_int (-config.check_bits))
  in
  let error_rate = float_of_int acc.failures /. float_of_int trials in
  let error_lower95, error_upper95 = wilson ~failures:acc.failures ~trials in
  let error_ok = acc.failures = 0 || error_rate <= error_limit in
  ( {
      kind = "faulted";
      protocol = proto_name;
      plan = Some plan_name;
      k;
      trials;
      failures = acc.failures;
      degraded = acc.degraded;
      error_limit;
      error_lower95;
      error_upper95;
      error_ok;
      rounds_max = acc.rounds_max;
      rounds_limit = None;
      rounds_ok = true;
      bits;
      bits_limit = None;
      bits_ok = true;
      pass = error_ok;
    },
    acc.sketch )

(* ---------- the matrix ---------- *)

let run ?domains ?sink (config : config) =
  if config.trials_per_cell < 1 then invalid_arg "Sweep.run: trials_per_cell";
  if config.protocols = [] && config.fault_protocols = [] then
    invalid_arg "Sweep.run: empty matrix";
  let record cell sketch =
    (* Telemetry closes each cell sequentially, in matrix order, after the
       parallel fold — the JSONL stream stays byte-identical across domain
       counts. *)
    (match sink with
    | None -> ()
    | Some sink ->
        Telemetry.record_sweep_cell sink ~trials:cell.trials
          ~exact:(cell.trials - cell.failures) ~degraded:cell.degraded ~sketch);
    cell
  in
  let cache = Engine.Instance_cache.create () in
  let clean =
    List.concat_map
      (fun name ->
        let entry = Conform.entry_of_name name in
        List.map
          (fun k ->
            let cell, sketch = clean_cell_acc ?domains config ~cache entry ~k in
            record cell sketch)
          config.ks)
      config.protocols
  in
  let bases = Engine.Instance_cache.create () in
  let faulted =
    List.concat_map
      (fun proto_name ->
        List.concat_map
          (fun k ->
            List.map
              (fun (plan_name, link) ->
                let cell, sketch =
                  fault_cell_acc ?domains config ~bases ~proto_name ~k ~plan_name ~link
                in
                record cell sketch)
              config.plans)
          config.fault_ks)
      config.fault_protocols
  in
  let cells = clean @ faulted in
  {
    config;
    cells;
    total_trials = List.fold_left (fun acc (c : cell) -> acc + c.trials) 0 cells;
    pass = List.for_all (fun (c : cell) -> c.pass) cells;
  }

(* ---------- export ---------- *)

let json_of_cell (c : cell) =
  Stats.Json.Obj
    [
      ("kind", Stats.Json.Str c.kind);
      ("protocol", Stats.Json.Str c.protocol);
      ("plan", match c.plan with Some p -> Stats.Json.Str p | None -> Stats.Json.Null);
      ("k", Stats.Json.Int c.k);
      ("trials", Stats.Json.Int c.trials);
      ("failures", Stats.Json.Int c.failures);
      ("degraded", Stats.Json.Int c.degraded);
      ("error_limit", Stats.Json.Float c.error_limit);
      ("error_lower95", Stats.Json.Float c.error_lower95);
      ("error_upper95", Stats.Json.Float c.error_upper95);
      ("error_ok", Stats.Json.Bool c.error_ok);
      ("rounds_max", Stats.Json.Int c.rounds_max);
      ( "rounds_limit",
        match c.rounds_limit with Some r -> Stats.Json.Int r | None -> Stats.Json.Null );
      ("rounds_ok", Stats.Json.Bool c.rounds_ok);
      ( "bits",
        Stats.Json.Obj
          [
            ("mean", Stats.Json.Float c.bits.mean);
            ("p50", Stats.Json.Int c.bits.p50);
            ("p90", Stats.Json.Int c.bits.p90);
            ("p99", Stats.Json.Int c.bits.p99);
            ("min", Stats.Json.Int c.bits.min_bits);
            ("max", Stats.Json.Int c.bits.max_bits);
          ] );
      ( "bits_limit",
        match c.bits_limit with Some b -> Stats.Json.Float b | None -> Stats.Json.Null );
      ("bits_ok", Stats.Json.Bool c.bits_ok);
      ("pass", Stats.Json.Bool c.pass);
    ]

let to_json ?reproduce (report : report) =
  let c = report.config in
  Stats.Json.Obj
    (List.concat
       [
         [ ("bench", Stats.Json.Str "sweep") ];
         (match reproduce with Some cmd -> [ ("reproduce", Stats.Json.Str cmd) ] | None -> []);
         [
           ( "config",
             Stats.Json.Obj
               [
                 ("seed", Stats.Json.Int c.seed);
                 ("trials_per_cell", Stats.Json.Int c.trials_per_cell);
                 ("universe_bits", Stats.Json.Int c.universe_bits);
                 ("protocols", Stats.Json.List (List.map (fun p -> Stats.Json.Str p) c.protocols));
                 ("ks", Stats.Json.List (List.map (fun k -> Stats.Json.Int k) c.ks));
                 ( "fault_protocols",
                   Stats.Json.List (List.map (fun p -> Stats.Json.Str p) c.fault_protocols) );
                 ("fault_ks", Stats.Json.List (List.map (fun k -> Stats.Json.Int k) c.fault_ks));
                 ( "plans",
                   Stats.Json.Obj
                     (List.map
                        (fun (name, (l : Commsim.Faults.link)) ->
                          ( name,
                            Stats.Json.Obj
                              [
                                ("flip", Stats.Json.Float l.Commsim.Faults.flip);
                                ("trunc", Stats.Json.Float l.Commsim.Faults.trunc);
                                ("dup", Stats.Json.Float l.Commsim.Faults.dup);
                                ("drop", Stats.Json.Float l.Commsim.Faults.drop);
                              ] ))
                        c.plans) );
                 ("budget_attempts", Stats.Json.Int c.budget_attempts);
                 ("check_bits", Stats.Json.Int c.check_bits);
               ] );
           ("cells", Stats.Json.List (List.map json_of_cell report.cells));
           ("total_trials", Stats.Json.Int report.total_trials);
           ("pass", Stats.Json.Bool report.pass);
         ];
       ])

let summary (report : report) =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf "Mega-sweep (%d cells, %d trials)" (List.length report.cells)
           report.total_trials)
      ~columns:
        [ "kind"; "protocol"; "plan"; "k"; "fail"; "err lo95"; "bound"; "rounds"; "mean bits"; "pass" ]
  in
  List.iter
    (fun (c : cell) ->
      Stats.Table.add_row table
        [
          c.kind;
          c.protocol;
          (match c.plan with Some p -> p | None -> "-");
          string_of_int c.k;
          Printf.sprintf "%d/%d" c.failures c.trials;
          Printf.sprintf "%.2g" c.error_lower95;
          Printf.sprintf "%.2g" c.error_limit;
          string_of_int c.rounds_max;
          Printf.sprintf "%.0f" c.bits.mean;
          (if c.pass then "yes" else "NO");
        ])
    report.cells;
  Stats.Table.render table

let violations (report : report) =
  List.filter_map
    (fun (c : cell) ->
      if c.pass then None
      else
        Some
          (Printf.sprintf "%s/%s k=%d violated its envelope (%d/%d failures)" c.protocol
             (Option.value c.plan ~default:"clean")
             c.k c.failures c.trials))
    report.cells
