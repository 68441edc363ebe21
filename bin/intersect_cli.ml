(* Command-line driver for the intersection protocols.

   Examples:
     intersect_cli profile --protocol tree-r3 -k 1024 --overlap 512 --trials 5
     intersect_cli profile --protocol trivial -k 256 --universe-bits 40
     intersect_cli trace --protocol star --players 16 -k 64 --format jsonl
     intersect_cli disj -k 128 --overlap 0
     intersect_cli chaos --smoke --json        # any seeded campaign; see "campaigns" below *)

open Cmdliner
open Intersect

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
let k_arg = Arg.(value & opt int 1024 & info [ "k"; "set-size" ] ~docv:"K" ~doc:"Set-size bound.")

let universe_bits_arg =
  Arg.(value & opt int 30 & info [ "universe-bits" ] ~docv:"B" ~doc:"Universe size 2^B.")

let overlap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "overlap" ] ~docv:"O" ~doc:"Planted intersection size (default k/2).")

(* The CLI's one error rule: input the library rejects, or a file path
   it cannot read or write, is a usage error, exit 2 with one stderr line
   naming the subcommand. *)
let guarded name body =
  match body () with
  | exception (Invalid_argument msg | Sys_error msg) ->
      Printf.eprintf "%s: %s\n" name msg;
      2
  | status -> status

(* A one-shot subcommand: [term] applies its flags to a body that prints
   and returns the exit status, run under [guarded]. *)
let one_shot name ~doc term = Cmd.v (Cmd.info name ~doc) (Term.app (Term.const (guarded name)) term)

let disj_cmd =
  let bits_arg =
    Arg.(value & opt int 8 & info [ "bits-per-message" ] ~docv:"B" ~doc:"HW density knob.")
  in
  let run k universe_bits overlap bits seed () =
    let universe = 1 lsl universe_bits in
    let overlap = Option.value overlap ~default:0 in
    let rng = Prng.Rng.of_int seed in
    let pair =
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.with_label rng "workload")
        ~universe ~size_s:k ~size_t:k ~overlap
    in
    let outcome =
      Disjointness.hw ~bits_per_message:bits
        (Prng.Rng.with_label rng "disj")
        ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
    in
    Format.printf "verdict: %s  %a@."
      (if outcome.Disjointness.disjoint then "disjoint" else "intersecting")
      Commsim.Cost.pp outcome.Disjointness.cost;
    0
  in
  one_shot "disj" ~doc:"Run the Hastad-Wigderson-style disjointness baseline."
    Term.(const run $ k_arg $ universe_bits_arg $ overlap_arg $ bits_arg $ seed_arg)

let similarity_cmd =
  let sketch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sketch" ] ~docv:"S"
          ~doc:"Also run a bottom-$(docv) min-wise sketch for comparison.")
  in
  let run k universe_bits overlap seed sketch () =
    let universe = 1 lsl universe_bits in
    let overlap = Option.value overlap ~default:(k / 3) in
    let rng = Prng.Rng.of_int seed in
    let pair =
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.with_label rng "workload")
        ~universe ~size_s:k ~size_t:k ~overlap
    in
    let result =
      Apps.Similarity.run (Prng.Rng.with_label rng "sim") ~universe pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    Printf.printf "|S cap T| = %d, |S cup T| = %d\n" result.Apps.Similarity.intersection_size
      result.Apps.Similarity.union_size;
    Printf.printf "jaccard = %.4f, hamming = %d, 1-rarity = %.4f, 2-rarity = %.4f\n"
      result.Apps.Similarity.jaccard result.Apps.Similarity.hamming result.Apps.Similarity.rarity1
      result.Apps.Similarity.rarity2;
    Format.printf "exact answer cost: %a@." Commsim.Cost.pp result.Apps.Similarity.cost;
    (match sketch with
    | None -> ()
    | Some sketch_size ->
        let (j, inter), cost =
          Apps.Sketch.exchange
            (Prng.Rng.with_label rng "sketch")
            ~sketch_size pair.Workload.Setgen.s pair.Workload.Setgen.t
        in
        Format.printf "bottom-%d sketch: jaccard ~= %.4f, |S cap T| ~= %.0f, cost %a@."
          sketch_size j inter Commsim.Cost.pp cost);
    0
  in
  one_shot "similarity" ~doc:"Exact similarity statistics (optionally vs a min-wise sketch)."
    Term.(const run $ k_arg $ universe_bits_arg $ overlap_arg $ seed_arg $ sketch_arg)

(* ---------- trace / profile: the one way to run a named protocol ---------- *)

(* The registered two-party suite, then the runs outside Protocol.t. *)
let protocol_names =
  Workload.Regress.protocol_names @ [ "resilient"; "session"; "star"; "tournament" ]

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~docv:"D"
        ~doc:
          "Engine worker domains (default: one per core).  Results are byte-identical for any \
           value; only wall-clock changes.")

(* Run one seeded workload under a fresh collector + metrics registry.
   Returns the collected events alongside the exact execution cost.
   Raises [Invalid_argument] on an unknown name or input the library
   rejects. *)
let collect_with ~name ~k ~universe_bits ~overlap ~players ~rng =
  let universe = 1 lsl universe_bits in
  let collector = Obsv.Trace.create () in
  let registry = Obsv.Metrics.create () in
  let two_party_pair () =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "workload")
      ~universe ~size_s:k ~size_t:k
      ~overlap:(Option.value overlap ~default:(k / 2))
  in
  let run () =
    match name with
    | "star" | "tournament" ->
        let core = Option.value overlap ~default:(k / 4) in
        let sets =
          Workload.Setgen.family_with_core
            (Prng.Rng.with_label rng "workload")
            ~universe ~players ~size:k ~core
        in
        let result, cost =
          if name = "star" then
            Multiparty.Star.run (Prng.Rng.with_label rng "star") ~universe ~k sets
          else Multiparty.Tournament.run (Prng.Rng.with_label rng "tournament") ~universe ~k sets
        in
        (cost, Iset.cardinal result)
    | "resilient" ->
        let pair = two_party_pair () in
        let report =
          Resilient.run (Resilient.bucket_base ~k ()) ~plan:Commsim.Faults.clean
            (Prng.Rng.with_label rng "resilient")
            ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
        in
        List.iter
          (function
            | Resilient.Check_rejected -> prerr_endline "resilient: equality check rejected"
            | Resilient.Channel_lost d -> Printf.eprintf "resilient: channel lost: %s\n" d
            | Resilient.Party_crashed d -> Printf.eprintf "resilient: party crashed: %s\n" d)
          report.Resilient.failures;
        (report.Resilient.cost, Iset.cardinal report.Resilient.result)
    | "session" ->
        (* One full session over a mildly dropping link: exercises the
           ladder (and its session/* spans) end to end. *)
        let pair = two_party_pair () in
        let plan =
          Commsim.Faults.uniform
            ~seed:(Prng.Rng.bits (Prng.Rng.with_label rng "session-plan") ~width:30)
            (Commsim.Faults.dropping 8e-2)
        in
        let cfg =
          {
            (Session.Machine.default ~k ~plan) with
            Session.Machine.universe_bits;
            seed = Prng.Rng.bits (Prng.Rng.with_label rng "session-seed") ~width:30;
          }
        in
        let report =
          Session.Machine.run cfg ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t
        in
        List.iter
          (fun (kind, detail) ->
            Printf.eprintf "session: attempt failed (%s): %s\n"
              (Session.Machine.kind_name kind) detail)
          report.Session.Machine.failures;
        let size =
          match Session.Machine.result_of report.Session.Machine.outcome with
          | Some result -> Iset.cardinal result
          | None -> 0
        in
        (report.Session.Machine.ledger.Session.Machine.cost, size)
    | name when List.mem name Workload.Regress.protocol_names ->
        let protocol = Workload.Regress.protocol_of ~name ~k in
        let pair = two_party_pair () in
        let outcome =
          protocol.Protocol.run rng ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
        in
        (outcome.Protocol.cost, Iset.cardinal outcome.Protocol.alice)
    | name ->
        invalid_arg
          (Printf.sprintf "unknown protocol %s (one of: %s)" name
             (String.concat ", " protocol_names))
  in
  let cost, size =
    Obsv.Trace.with_collector collector (fun () -> Obsv.Metrics.with_registry registry run)
  in
  (collector, registry, cost, size)

let obsv_protocol_arg =
  Arg.(
    value
    & opt string "bucket"
    & info [ "protocol" ] ~docv:"P"
        ~doc:("Protocol name (one of: " ^ String.concat ", " protocol_names ^ ")."))

let obsv_players_arg =
  Arg.(value & opt int 8 & info [ "players" ] ~docv:"M" ~doc:"Players (star/tournament only).")

let obsv_k_arg =
  Arg.(value & opt int 64 & info [ "k"; "set-size" ] ~docv:"K" ~doc:"Set-size bound.")

let trace_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format" ] ~docv:"F"
          ~doc:"chrome (trace_event JSON for chrome://tracing) or jsonl (one event per line).")
  in
  let run name k universe_bits overlap players seed format () =
    let collector, _, _, _ =
      collect_with ~name ~k ~universe_bits ~overlap ~players
        ~rng:(Prng.Rng.with_label (Prng.Rng.of_int seed) "cli-obsv")
    in
    (match format with
    | `Chrome -> print_endline (Stats.Json.to_string_pretty (Obsv.Export.chrome_trace collector))
    | `Jsonl -> List.iter print_endline (Obsv.Export.jsonl collector));
    0
  in
  one_shot "trace"
    ~doc:
      "Run one seeded execution of a named protocol with phase tracing enabled and emit the \
       trace (Chrome trace_event JSON by default; load it in chrome://tracing or Perfetto)."
    Term.(
      const run $ obsv_protocol_arg $ obsv_k_arg $ universe_bits_arg $ overlap_arg
      $ obsv_players_arg $ seed_arg $ format_arg)

let profile_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the breakdown as JSON instead of tables.")
  in
  let profile_trials_arg =
    Arg.(
      value & opt int 1
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Seeded executions to aggregate (engine seed stream; per-trial costs, phase ledgers \
             and metrics registries are merged in trial order).")
  in
  let run name k universe_bits overlap players seed json trials domains () =
    if trials < 1 then invalid_arg "--trials must be >= 1";
    let stream = Engine.Seed_stream.create ~base:seed ~label:"cli-obsv" in
    let results =
      Array.to_list
        (Engine.Pool.map ?domains ~trials (fun i ->
             collect_with ~name ~k ~universe_bits ~overlap ~players
               ~rng:(Engine.Seed_stream.trial_rng stream (i + 1))))
    in
    let costs = List.map (fun (_, _, cost, _) -> cost) results in
    let cost =
      Engine.Merge.costs ~players:(Array.length (List.hd costs).Commsim.Cost.players) costs
    in
    let registry = Engine.Merge.metrics (List.map (fun (_, reg, _, _) -> reg) results) in
    let phases =
      Obsv.Export.merge_phases
        (List.map (fun (collector, _, _, _) -> Obsv.Export.phases collector) results)
    in
    let _, _, _, size = List.hd results in
    let phase_bits = List.fold_left (fun acc p -> acc + p.Obsv.Export.bits) 0 phases in
    let exact = phase_bits = cost.Commsim.Cost.total_bits in
    if json then
      print_endline
        (Stats.Json.to_string_pretty
           (Stats.Json.Obj
              [
                ("protocol", Stats.Json.Str name);
                ("k", Stats.Json.Int k);
                ("seed", Stats.Json.Int seed);
                ("trials", Stats.Json.Int trials);
                ("total_bits", Stats.Json.Int cost.Commsim.Cost.total_bits);
                ("messages", Stats.Json.Int cost.Commsim.Cost.messages);
                ("rounds", Stats.Json.Int cost.Commsim.Cost.rounds);
                ("result_size", Stats.Json.Int size);
                ("phase_bits", Stats.Json.Int phase_bits);
                ("phase_bits_exact", Stats.Json.Bool exact);
                ("phases", Obsv.Export.phases_json_of phases);
                ("metrics", Obsv.Metrics.to_json registry);
              ]))
    else begin
      Printf.printf "profile: protocol=%s k=%d universe=2^%d seed=%d trials=%d\n" name k
        universe_bits seed trials;
      Format.printf "%a; |result| = %d@." Commsim.Cost.pp_breakdown cost size;
      print_newline ();
      Stats.Table.print (Obsv.Export.phase_table_of phases);
      print_newline ();
      let per_player =
        Stats.Table.create ~title:"per-player" ~columns:Commsim.Cost.breakdown_columns
      in
      List.iter (Stats.Table.add_row per_player) (Commsim.Cost.breakdown_rows cost);
      Stats.Table.print per_player;
      (* Sketches appear only as the quantile table below. *)
      (match
         List.map (fun (m, v) -> [ m; "counter"; string_of_int v ])
           (Obsv.Metrics.counters_list registry)
         @ List.map (fun (m, v) -> [ m; "gauge"; string_of_int v ])
             (Obsv.Metrics.gauges_list registry)
       with
      | [] -> ()
      | rows ->
          print_newline ();
          let scalars =
            Stats.Table.create ~title:"counters and gauges"
              ~columns:[ "metric"; "kind"; "value" ]
          in
          List.iter (Stats.Table.add_row scalars) rows;
          Stats.Table.print scalars);
      (match Obsv.Metrics.sketches_list registry with
      | [] -> ()
      | sketches ->
          print_newline ();
          let qtable =
            Stats.Table.create ~title:"sketch quantiles (1/16 relative error)"
              ~columns:[ "sketch"; "count"; "p50"; "p90"; "p99"; "max" ]
          in
          List.iter
            (fun (sname, s) ->
              let open Obsv.Sketch in
              Stats.Table.add_row qtable
                (sname
                :: List.map string_of_int
                     [ count s; p50 s; p90 s; p99 s; Option.value ~default:0 (max_value s) ]))
            sketches;
          Stats.Table.print qtable);
      print_newline ();
      Printf.printf "phase bits %d %s Cost.total_bits %d\n" phase_bits
        (if exact then "=" else "<>")
        cost.Commsim.Cost.total_bits
    end;
    if exact then 0 else 1
  in
  one_shot "profile"
    ~doc:
      "Run seeded executions of a named protocol on the trial engine and print the merged \
       per-phase budget breakdown (bits attributed to the sender's innermost span), the \
       per-player cost table, the merged registry's counters and gauges, and the p50/p90/p99 of \
       each of its quantile sketches (payload sizes, tag widths, bucket occupancy, ...); --json \
       prints the whole registry instead.  Exits 1 if the per-phase bits fail to sum to the \
       exact Cost.total_bits."
    Term.(
      const run $ obsv_protocol_arg $ obsv_k_arg $ universe_bits_arg $ overlap_arg
      $ obsv_players_arg $ seed_arg $ json_arg $ profile_trials_arg $ domains_arg)

(* ---------- campaigns: one driver behind every seeded campaign ---------- *)

(* The flags the campaign subcommands share.  An unset option falls back
   to the library's [default] config record ([smoke] under --smoke), so
   each campaign has exactly one set of defaults: the library's. *)
type campaign = {
  smoke : bool;
  seed : int option;
  trials : int option;
  json : bool;
  out : string option;
  domains : int option;
  telemetry : string option;
}

(* A campaign whose library entry point takes no domain count or
   telemetry sink, or that has no JSON report to print or write, switches
   the matching flag off instead of accepting it and ignoring it. *)
let campaign_term ~trials ?(json = true) ?(out = true) ?(domains = true) ?(telemetry = true) () =
  let when_ on arg off = if on then arg else Term.const off in
  let trials_name, trials_doc = trials in
  let mk smoke seed trials json out domains telemetry =
    { smoke; seed; trials; json; out; domains; telemetry }
  in
  Term.(
    const mk
    $ Arg.(value & flag & info [ "smoke" ] ~doc:"Seconds-scale configuration.")
    $ Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed.")
    $ Arg.(value & opt (some int) None & info [ trials_name ] ~docv:"N" ~doc:trials_doc)
    $ when_ json
        Arg.(value & flag & info [ "json" ] ~doc:"Print the JSON report instead of the table.")
        false
    $ when_ out
        Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
        None
    $ when_ domains domains_arg None
    $ when_ telemetry
        Arg.(
          value
          & opt (some string) None
          & info [ "telemetry" ] ~docv:"FILE"
              ~doc:
                "Write the fleet-telemetry JSONL stream (snapshots, rates, post-mortems) to \
                 $(docv).")
        None)

let campaign_k_arg =
  Arg.(value & opt (some int) None & info [ "k"; "set-size" ] ~docv:"K" ~doc:"Set-size bound.")

let list_arg elt names ~docv ~doc = Arg.(value & opt (some (list elt)) None & info names ~docv ~doc)

(* The planted overlap: explicit, else half an explicit k, else the
   config's own. *)
let overlap_of ~k ~overlap default =
  match (overlap, k) with Some o, _ -> o | None, Some k -> k / 2 | None, None -> default

(* The runnable command line that regenerates a campaign's report. *)
let reproduce_cmd c sub fmt =
  Printf.ksprintf
    (Printf.sprintf "dune exec bin/intersect_cli.exe -- %s%s %s" sub
       (if c.smoke then " --smoke" else ""))
    fmt

let sink_of c = Option.map (fun _ -> Workload.Telemetry.create_sink ()) c.telemetry

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n')
        lines);
  Printf.eprintf "wrote %s\n" path

(* Print the table or the JSON report, write --out and --telemetry. *)
let emit c ?sink ~table json =
  (match (c.telemetry, sink) with
  | Some path, Some sink -> write_lines path (Workload.Telemetry.jsonl sink)
  | _ -> ());
  let json = Stats.Json.to_string_pretty json in
  if c.json then print_endline json else print_string table;
  Option.iter (fun path -> write_lines path [ json ]) c.out

(* The one exit rule: non-zero iff the campaign reported a violation. *)
let finish sub violations =
  List.iter (Printf.eprintf "%s: %s\n" sub) violations;
  if violations = [] then 0 else 1

(* Open [path] for writing, as [write_lines] will, without truncating it,
   and remove it again if it was not there: a path that cannot be written
   raises [Sys_error] now rather than after the campaign. *)
let check_writable path =
  let existed = Sys.file_exists path in
  Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_text ] 0o666 path ignore;
  if not existed then Sys.remove path

(* Every campaign subcommand runs through here.  [term] takes the
   campaign flags and runs the campaign: it prints the report and returns
   the violations.  Input the library rejects — the campaign runner
   validates every config before any cell runs — and an --out or
   --telemetry path that cannot be written, checked before that, exit 2
   as a usage error ([guarded]) with nothing on stdout. *)
let campaign_cmd name ~doc campaign term =
  let drive c body =
    guarded name (fun () ->
        Option.iter check_writable c.out;
        Option.iter check_writable c.telemetry;
        finish name (body c))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const drive $ campaign $ term)

let soak_cmd =
  let module S = Workload.Soak in
  let run k overlap c =
    let base = if c.smoke then S.smoke else S.default in
    let config =
      {
        base with
        S.seed = Option.value c.seed ~default:base.S.seed;
        trials = Option.value c.trials ~default:base.S.trials;
        k = Option.value k ~default:base.S.k;
        overlap = overlap_of ~k ~overlap base.S.overlap;
      }
    in
    let sink = sink_of c in
    let report = S.run ?domains:c.domains ?sink config in
    let reproduce =
      reproduce_cmd c "soak" "--seed %d --trials %d -k %d --overlap %d" config.S.seed config.S.trials
        config.S.k config.S.overlap
    in
    emit c ?sink ~table:(S.summary report) (S.to_json ~reproduce report);
    S.violations report
  in
  campaign_cmd "soak"
    ~doc:
      "Soak the resilient wrapper against adversarial channels: seeded trials per (protocol x \
       fault plan) cell, each checked against the paper's error bound.  Exits non-zero on any \
       cell outside it."
    (campaign_term ~trials:("trials", "Trials per (protocol x plan) cell.") ())
    Term.(const run $ campaign_k_arg $ overlap_arg)

(* The chaos config, shared by chaos and the fleet views built on it. *)
let chaos_config c k overlap =
  let module C = Workload.Chaos in
  let base = if c.smoke then C.smoke else C.default in
  {
    base with
    C.seed = Option.value c.seed ~default:base.C.seed;
    trials = Option.value c.trials ~default:base.C.trials;
    k = Option.value k ~default:base.C.k;
    overlap = overlap_of ~k ~overlap base.C.overlap;
  }

let chaos_trials = ("trials", "Trials per (protocol x campaign) cell.")

let chaos_cmd =
  let module C = Workload.Chaos in
  let run k overlap c =
    let config = chaos_config c k overlap in
    let sink = sink_of c in
    let report = C.run ?domains:c.domains ?sink config in
    let reproduce =
      reproduce_cmd c "chaos" "--seed %d --trials %d -k %d --overlap %d" config.C.seed config.C.trials
        config.C.k config.C.overlap
    in
    emit c ?sink ~table:(C.summary report) (C.to_json ~reproduce report);
    C.invariant_violations report
  in
  campaign_cmd "chaos"
    ~doc:
      "Run seeded chaos campaigns (corruption storms, stall bursts, mid-session crash/resume) \
       against the session robustness layer and check the chaos invariant: outcomes partition \
       the trials, no wrong intersection, every resume replays identically.  Exits non-zero on \
       any violation.  --telemetry also enables per-session flight recorders."
    (campaign_term ~trials:chaos_trials ())
    Term.(const run $ campaign_k_arg $ overlap_arg)

(* ---------- health / top: fleet telemetry over a chaos campaign ---------- *)

(* Both fleet views drive the chaos matrix with a telemetry sink.  The
   deadline-squeeze campaign is excluded by default: it exists to force
   failed-safe outcomes, which would make every default health check red.
   --all-campaigns puts it back for deliberate SLO-violation drills. *)
let fleet_config c k overlap ~all_campaigns =
  let config = chaos_config c k overlap in
  if all_campaigns then config
  else
    {
      config with
      Workload.Chaos.campaigns =
        List.filter (fun (name, _) -> name <> "deadline-squeeze") config.Workload.Chaos.campaigns;
    }

let all_campaigns_arg =
  Arg.(
    value & flag
    & info [ "all-campaigns" ]
        ~doc:
          "Include the deadline-squeeze campaign (deliberately drives failed-safe sessions, so \
           expect a red failed-safe-rate verdict).")

let slos_term =
  let some_pm names doc = Arg.(value & opt (some int) None & info names ~docv:"PM" ~doc) in
  let mk failed degraded burn =
    let d = Obsv.Health.default_slos in
    {
      Obsv.Health.max_failed_safe_per_mille =
        Option.value failed ~default:d.Obsv.Health.max_failed_safe_per_mille;
      max_degraded_per_mille =
        Option.value degraded ~default:d.Obsv.Health.max_degraded_per_mille;
      max_p99_burn_per_mille = Option.value burn ~default:d.Obsv.Health.max_p99_burn_per_mille;
    }
  in
  Term.(
    const mk
    $ some_pm [ "max-failed-safe" ] "Failed-safe rate SLO in per-mille (default 50)."
    $ some_pm [ "max-degraded" ] "Degraded (fallback) rate SLO in per-mille (default 250)."
    $ some_pm [ "max-p99-burn" ]
        "p99 deadline-burn SLO in per-mille of the session deadline (default 900).")

(* Score a finished fleet campaign: its violations are the chaos
   invariant's plus every SLO the final snapshot breaks. *)
let fleet_finish c ~slos sink report ~table =
  match Workload.Telemetry.health ~slos sink with
  | None -> [ "campaign recorded no snapshots" ]
  | Some h ->
      let violations =
        Workload.Chaos.invariant_violations report
        @ List.filter_map
            (fun (v : Obsv.Health.verdict) ->
              if v.Obsv.Health.ok then None
              else Some (Printf.sprintf "SLO %s violated: %s" v.Obsv.Health.slo v.Obsv.Health.detail))
            h.Obsv.Health.verdicts
      in
      emit c ~sink ~table:(table h violations)
        (Stats.Json.Obj [ ("health", Obsv.Health.to_json h); ("slos", Obsv.Health.slos_json slos) ]);
      violations

let health_cmd =
  let run k overlap all_campaigns slos c =
    let config = fleet_config c k overlap ~all_campaigns in
    let sink = Workload.Telemetry.create_sink () in
    let report = Workload.Chaos.run ?domains:c.domains ~sink config in
    fleet_finish c ~slos sink report ~table:(fun h violations ->
        Printf.sprintf "%s\nfleet: %d sessions over %d cells; verdict %s\n"
          (Stats.Table.render (Obsv.Health.table h))
          h.Obsv.Health.sessions
          (List.length report.Workload.Chaos.cells)
          (if violations = [] then "HEALTHY" else "UNHEALTHY"))
  in
  campaign_cmd "health"
    ~doc:
      "Run the chaos campaign matrix with fleet telemetry enabled and score the final snapshot \
       against the declared SLOs (wrong-answer rate is hard-wired to zero; failed-safe / \
       degraded / p99-deadline-burn rates take per-mille thresholds).  Exits non-zero on any \
       SLO or chaos-invariant violation."
    (campaign_term ~trials:chaos_trials ~out:false ())
    Term.(const run $ campaign_k_arg $ overlap_arg $ all_campaigns_arg $ slos_term)

let top_cmd =
  let no_ansi_arg =
    Arg.(
      value & flag
      & info [ "no-ansi" ]
          ~doc:"Append frames instead of redrawing in place (for logs and dumb terminals).")
  in
  let render_frame ~no_ansi sink idx total (cell : Workload.Chaos.cell) =
    if not no_ansi then print_string "\027[H\027[2J";
    Printf.printf "intersect fleet top — cell %d/%d: %s / %s\n" idx total
      cell.Workload.Chaos.protocol cell.Workload.Chaos.campaign;
    (match Workload.Telemetry.last_snapshot sink with
    | None -> ()
    | Some snap ->
        let c name = Obsv.Snapshot.counter snap name in
        Printf.printf "fleet   sessions %-6d completed %-6d degraded %-6d failed_safe %-6d wrong %d\n"
          (c Obsv.Health.k_sessions)
          (c (Obsv.Health.k_outcome "completed"))
          (c (Obsv.Health.k_outcome "degraded"))
          (c (Obsv.Health.k_outcome "failed_safe"))
          (c Obsv.Health.k_wrong);
        Printf.printf "        attempts %-6d resumes %-7d post-mortems %d\n"
          (c Obsv.Health.k_attempts) (c Obsv.Health.k_resumes)
          (List.length (Workload.Telemetry.postmortems sink));
        let sketch_line label name =
          match Obsv.Snapshot.sketch snap name with
          | None -> ()
          | Some s ->
              Printf.printf "%s p50 %-7d p90 %-7d p99 %-7d max %d\n" label
                s.Obsv.Snapshot.s_p50 s.Obsv.Snapshot.s_p90 s.Obsv.Snapshot.s_p99
                s.Obsv.Snapshot.s_max
        in
        sketch_line "spent bits   " Obsv.Health.k_spent_bits;
        sketch_line "backoff ticks" Obsv.Health.k_backoff_ticks);
    Printf.printf "cell    %d trials: %d completed, %d degraded, %d failed-safe, %d resumed\n%!"
      cell.Workload.Chaos.trials cell.Workload.Chaos.completed cell.Workload.Chaos.degraded
      cell.Workload.Chaos.failed_safe cell.Workload.Chaos.resumed
  in
  let run k overlap all_campaigns no_ansi slos c =
    let config = fleet_config c k overlap ~all_campaigns in
    let sink = Workload.Telemetry.create_sink () in
    let report =
      Workload.Chaos.run ?domains:c.domains ~sink ~on_cell:(render_frame ~no_ansi sink) config
    in
    fleet_finish c ~slos sink report ~table:(fun h _ ->
        "\n" ^ Stats.Table.render (Obsv.Health.table h) ^ "\n")
  in
  campaign_cmd "top"
    ~doc:
      "Live top-style view of a chaos campaign: runs the matrix cell by cell through the \
       fleet-telemetry sink and redraws a frame per cell (sessions, outcome taxonomy, \
       spend-sketch percentiles), finishing with the SLO health table.  Frames are event-time \
       snapshots, so the stream is deterministic for a fixed seed."
    (campaign_term ~trials:chaos_trials ~json:false ~out:false ())
    Term.(
      const run $ campaign_k_arg $ overlap_arg $ all_campaigns_arg $ no_ansi_arg $ slos_term)

let bench_regress_cmd =
  let module R = Workload.Regress in
  let deterministic_arg =
    Arg.(
      value & flag
      & info [ "deterministic-json" ]
          ~doc:
            "Print every field but allocation (bits, messages, rounds) as JSON, to compare \
             a change that moves bytes/run with its parent.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a committed BENCH_hotpath.json: every field of every cell, \
             allocation bytes/run included, must match exactly.  Exit 1 on violation.")
  in
  let run deterministic baseline ks protocols c =
    let baseline =
      Option.map (fun path -> (path, In_channel.with_open_text path In_channel.input_all)) baseline
    in
    let base = if c.smoke then R.smoke else R.default in
    let config =
      {
        base with
        R.seed = Option.value c.seed ~default:base.R.seed;
        trials = Option.value c.trials ~default:base.R.trials;
        ks = Option.value ks ~default:base.R.ks;
        protocols = Option.value protocols ~default:base.R.protocols;
      }
    in
    let report = R.run config in
    let table =
      if deterministic then Stats.Json.to_string_pretty (R.deterministic_json report) ^ "\n"
      else R.summary report
    in
    emit { c with json = c.json && not deterministic } ~table (R.to_json report);
    match baseline with
    | None -> []
    | Some (path, text) -> (
        match Stats.Json.of_string text with
        | Error e -> [ Printf.sprintf "cannot parse %s: %s" path e ]
        | Ok json -> R.baseline_violations report json)
  in
  campaign_cmd "bench-regress"
    ~doc:
      "Hot-path regression bench: seeded end-to-end runs of every registered protocol \
       measuring allocation bytes/run, with exact (deterministic) bit, message and round \
       counts.  With --baseline, every field must match a committed BENCH_hotpath.json \
       exactly, allocation included.  Wall-clock time is measured by perf/run.sh."
    (campaign_term ~trials:("trials", "Seeded trials per cell.") ~domains:false ~telemetry:false ())
    Term.(
      const run $ deterministic_arg $ baseline_arg
      $ list_arg Arg.int [ "k"; "set-size" ] ~docv:"K,K,..." ~doc:"Set-size sweep (comma-separated)."
      $ list_arg Arg.string [ "protocols" ] ~docv:"P,P,..."
          ~doc:
            ("Cells to bench, comma-separated (default: all of "
            ^ String.concat ", " R.default.R.protocols
            ^ ")."))

let conform_cmd =
  let module C = Workload.Conform in
  let run ks protocols c =
    let base = if c.smoke then C.smoke else C.default in
    let config =
      {
        base with
        C.seed = Option.value c.seed ~default:base.C.seed;
        trials = Option.value c.trials ~default:base.C.trials;
        ks = Option.value ks ~default:base.C.ks;
        protocols = Option.value protocols ~default:base.C.protocols;
      }
    in
    let report = C.run ?domains:c.domains config in
    let reproduce =
      reproduce_cmd c "conform" "--seed %d --trials %d -k %s --protocols %s" config.C.seed
        config.C.trials
        (String.concat "," (List.map string_of_int config.C.ks))
        (String.concat "," config.C.protocols)
    in
    emit c
      ~table:(Workload.Campaign.gate_table ~title:"Theorem conformance" report.C.cells)
      (C.to_json ~reproduce report);
    Workload.Campaign.gate_violations report.C.cells
  in
  campaign_cmd "conform"
    ~doc:
      "Theorem-conformance tier: run seeded trial sweeps on the engine and assert every \
       protocol stays inside its paper envelope (rounds budget per trial, constant-factor bits \
       envelope on the mean, Wilson-bounded error rate).  Exits non-zero on any envelope \
       violation."
    (campaign_term ~trials:("trials", "Trials per (protocol x k) cell.") ~out:false
       ~telemetry:false ())
    Term.(
      const run
      $ list_arg Arg.int [ "k"; "set-size" ] ~docv:"K,K,..." ~doc:"Set-size sweep (comma-separated)."
      $ list_arg Arg.string [ "protocols" ] ~docv:"P,P,..."
          ~doc:
            ("Statements to check, comma-separated (default: all of "
            ^ String.concat ", " C.entry_names
            ^ ")."))

let sweep_cmd =
  let module S = Workload.Sweep in
  let run c =
    let base = if c.smoke then S.smoke else S.default in
    let config =
      {
        base with
        S.seed = Option.value c.seed ~default:base.S.seed;
        trials_per_cell = Option.value c.trials ~default:base.S.trials_per_cell;
      }
    in
    let sink = sink_of c in
    let report = S.run ?domains:c.domains ?sink config in
    let reproduce =
      reproduce_cmd c "sweep" "--seed %d --trials %d" config.S.seed config.S.trials_per_cell
    in
    let title =
      Printf.sprintf "Mega-sweep (%d cells, %d trials)" (List.length report.S.cells)
        report.S.total_trials
    in
    emit c ?sink
      ~table:(Workload.Campaign.gate_table ~title report.S.cells)
      (S.to_json ~reproduce report);
    Workload.Campaign.gate_violations report.S.cells
  in
  campaign_cmd "sweep"
    ~doc:
      "Mega-sweep conformance matrix: stream 10^6+ seeded trials over protocol x k x fault-plan \
       cells through the trial engine, gating each cell's failure count against the paper's \
       1/poly(k) envelope (Wilson 95% bounds) or the resilient wrapper's rare-event bound.  \
       Byte-identical report at every --domains value.  Exits non-zero on any envelope \
       violation."
    (campaign_term ~trials:("trials", "Trials per matrix cell.") ())
    (Term.const run)

let telemetry_overhead_cmd =
  let module T = Workload.Telemetry in
  let max_ratio_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-ratio" ] ~docv:"R"
          ~doc:"Fail when the telemetry-on/off wall-clock ratio exceeds R.")
  in
  let run k max_ratio c =
    let base = if c.smoke then T.overhead_smoke else T.overhead_default in
    let config =
      {
        base with
        T.seed = Option.value c.seed ~default:base.T.seed;
        k = Option.value k ~default:base.T.k;
        sessions = Option.value c.trials ~default:base.T.sessions;
      }
    in
    let report = T.run_overhead config in
    let reproduce =
      reproduce_cmd c "telemetry-overhead" "--seed %d -k %d --sessions %d" config.T.seed config.T.k
        config.T.sessions
    in
    emit c ~table:(T.overhead_summary report ^ "\n") (T.overhead_json ~reproduce report);
    T.overhead_violations ?max_ratio report
  in
  campaign_cmd "telemetry-overhead"
    ~doc:
      "Measure the hot-path cost of the fleet-telemetry layer: the same seeded clean-link \
       sessions run in alternating off/on pairs of passes, and the ratio is the median per-pair \
       on/off ratio.  Exits non-zero when the deterministic session fields diverge between the \
       passes or the ratio exceeds --max-ratio (the gate behind BENCH_telemetry.json)."
    (campaign_term ~trials:("sessions", "Sessions per pass.") ~domains:false ~telemetry:false ())
    Term.(const run $ campaign_k_arg $ max_ratio_arg)

(* The hypothesis-driven experiment registry (experiments/NNN-slug.md;
   see experiments/README.md).  [verify] receives the group's own
   subcommand-name list so a renamed subcommand invalidates every entry
   whose reproduce/smoke command still quotes the old name. *)
let experiments_cmd ~cli_subcommands =
  let module R = Workload.Registry in
  let root_arg =
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc:"Repository root.")
  in
  let print_violations (violations : R.violation list) =
    List.iter
      (fun (v : R.violation) ->
        Printf.eprintf "experiments: %s: %s\n"
          (Option.value v.R.file ~default:"(registry)")
          v.R.what)
      violations
  in
  let load_checked root =
    let registry, violations = R.load ~root in
    print_violations violations;
    (registry, violations = [])
  in
  let list_cmd =
    let run root =
      let registry, ok = load_checked root in
      Stats.Table.print (R.table registry);
      let draft, running, complete, superseded = R.census registry in
      Printf.printf "%d entries: %d draft, %d running, %d complete, %d superseded\n"
        (List.length registry.R.entries) draft running complete superseded;
      if ok then 0 else 1
    in
    Cmd.v
      (Cmd.info "list" ~doc:"Status table of every registered experiment.")
      Term.(const run $ root_arg)
  in
  let show_cmd =
    let id_arg =
      Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Experiment id.")
    in
    let run root id =
      let registry, _ = R.load ~root in
      match List.find_opt (fun (e : R.entry) -> e.R.id = id) registry.R.entries with
      | None ->
          Printf.eprintf "experiments: no entry with id %d\n" id;
          2
      | Some e ->
          print_string (R.front_matter_of e);
          print_string e.R.body;
          print_newline ();
          0
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Print one experiment (canonical frontmatter + body).")
      Term.(const run $ root_arg $ id_arg)
  in
  let run_smoke ~what command =
    Printf.eprintf "experiments: regen %s: %s\n" what command;
    flush stderr;
    Sys.command command
  in
  let capture_run command path =
    Sys.command (Printf.sprintf "%s > %s" command (Filename.quote path))
  in
  let regen_smoke registry =
    List.concat_map
      (fun (command, mode, ids) ->
        let what =
          Printf.sprintf "[%s]" (String.concat "," (List.map (Printf.sprintf "%03d") ids))
        in
        match mode with
        | R.Gate | R.No_regen ->
            if run_smoke ~what command = 0 then []
            else [ { R.file = None; what = Printf.sprintf "regen %s failed: %s" what command } ]
        | R.Diff ->
            let a = Filename.temp_file "regen" ".a" and b = Filename.temp_file "regen" ".b" in
            Fun.protect
              ~finally:(fun () ->
                Sys.remove a;
                Sys.remove b)
              (fun () ->
                Printf.eprintf "experiments: regen %s (twice, diffed): %s\n" what command;
                flush stderr;
                if capture_run command a <> 0 || capture_run command b <> 0 then
                  [ { R.file = None; what = Printf.sprintf "regen %s failed: %s" what command } ]
                else
                  let read p = In_channel.with_open_bin p In_channel.input_all in
                  if read a = read b then []
                  else
                    [
                      {
                        R.file = None;
                        what =
                          Printf.sprintf "regen %s not deterministic (two runs differ): %s" what
                            command;
                      };
                    ]))
      (R.regen_plan registry)
  in
  let verify_cmd =
    let regen_arg =
      Arg.(
        value & flag
        & info [ "regen-smoke" ]
            ~doc:
              "Re-execute every Complete entry's smoke command (deduplicated) and enforce its \
               regen mode: exit 0 for gate, byte-identical stdout across two runs for diff.")
    in
    let run root regen =
      let registry, violations = R.load ~root in
      print_violations violations;
      let more = R.verify ~env:(R.repo_env ~root) ~cli_subcommands registry in
      print_violations more;
      let regen_violations = if regen then regen_smoke registry else [] in
      print_violations regen_violations;
      let all = violations @ more @ regen_violations in
      if all = [] then begin
        let _, _, complete, _ = R.census registry in
        Printf.printf "experiments: %d entries verified (%d complete)%s\n"
          (List.length registry.R.entries)
          complete
          (if regen then ", regen smoke green" else "");
        0
      end
      else begin
        Printf.eprintf "experiments: %d violation(s)\n" (List.length all);
        1
      end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Machine-check the registry: dense ids, live reproduce commands, existing \
            schema-valid artifacts, resolving cross-links.  Exits non-zero on any violation.")
      Term.(const run $ root_arg $ regen_arg)
  in
  let export_cmd =
    let run root =
      let registry, ok = load_checked root in
      if not ok then 1
      else begin
        print_string (R.export registry);
        0
      end
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Print the experiments.json index (byte-identical across runs; validated by \
            json_check --experiments).")
      Term.(const run $ root_arg)
  in
  Cmd.group
    (Cmd.info "experiments"
       ~doc:
         "The hypothesis-driven experiment registry over experiments/NNN-slug.md (lifecycle \
          Draft | Running | Complete | Superseded; see experiments/README.md).")
    [ list_cmd; show_cmd; verify_cmd; export_cmd ]

let () =
  let doc = "Set-intersection communication protocols (PODC'14 reproduction)." in
  let base =
    [
      disj_cmd;
      similarity_cmd;
      soak_cmd;
      chaos_cmd;
      health_cmd;
      top_cmd;
      bench_regress_cmd;
      conform_cmd;
      sweep_cmd;
      telemetry_overhead_cmd;
      trace_cmd;
      profile_cmd;
    ]
  in
  let cli_subcommands = List.sort compare ("experiments" :: List.map Cmd.name base) in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "intersect_cli" ~doc) (base @ [ experiments_cmd ~cli_subcommands ])))
