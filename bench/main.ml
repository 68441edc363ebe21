(* Experiment harness entry point.

   `dune exec bench/main.exe` regenerates every table of the experiment
   matrix (T1..T13, F1, A1..A5 — registry entries 001..019; see
   experiments/README.md) and then runs the Bechamel micro-benchmarks.
   Options:

     --quick        smaller sweeps (CI-friendly)
     --only T1,T3   run a subset of the tables
     --no-micro     skip the Bechamel timing section
     --micro-only   only the Bechamel timing section
     --trace-overhead  only the tracing-tax measurement (writes
                       BENCH_trace_overhead.json)
     --engine-scaling  only the trial-engine throughput measurement
                       (writes BENCH_engine_scaling.json)
     --alloc-gate      only the allocations-per-trial regression gate
                       (exit 1 if the bucket k=1024 or tree-log-star
                       k=4096 trial allocates more than its committed
                       baseline plus 2%) *)

let run quick only no_micro micro_only trace_overhead engine_scaling alloc_gate =
  if trace_overhead then begin
    Micro.trace_overhead ();
    exit 0
  end;
  if alloc_gate then exit (Scaling.alloc_gate ());
  if engine_scaling then begin
    Scaling.run ();
    exit 0
  end;
  (match List.find_opt (fun n -> not (List.mem n Tables.names)) only with
  | Some bad ->
      Printf.eprintf "unknown table %S (known: %s)\n" bad (String.concat ", " Tables.names);
      exit 2
  | None -> ());
  let t0 = Unix.gettimeofday () in
  if not micro_only then begin
    print_endline "Set-intersection communication experiments";
    print_endline "(Brody-Chakrabarti-Kondapally-Woodruff-Yaroslavtsev, PODC 2014 reproduction)";
    print_newline ();
    Tables.run ~quick ~only
  end;
  if (not no_micro) || micro_only then Micro.run ();
  (* Stderr, not stdout: the tables are deterministic for a fixed seed
     and the experiment registry's regen gate diffs two stdout runs. *)
  Printf.eprintf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps and fewer trials (CI-friendly).")

let only =
  Arg.(
    value
    & opt (list string) []
    & info [ "only" ] ~docv:"TABLES" ~doc:"Comma-separated subset of tables to run (e.g. T1,T3,A2).")

let no_micro = Arg.(value & flag & info [ "no-micro" ] ~doc:"Skip the Bechamel micro-benchmarks.")

let micro_only =
  Arg.(value & flag & info [ "micro-only" ] ~doc:"Run only the Bechamel micro-benchmarks.")

let trace_overhead =
  Arg.(
    value & flag
    & info [ "trace-overhead" ]
        ~doc:"Measure the cost of enabled vs disabled tracing and write BENCH_trace_overhead.json.")

let engine_scaling =
  Arg.(
    value & flag
    & info [ "engine-scaling" ]
        ~doc:
          "Measure trial-engine throughput at 1/2/4 worker domains and write \
           BENCH_engine_scaling.json.")

let alloc_gate =
  Arg.(
    value & flag
    & info [ "alloc-gate" ]
        ~doc:
          "Run only the allocations-per-trial regression gate: exit 1 if the bucket k=1024 or \
           tree-log-star k=4096 trial allocates more bytes than its committed baseline plus 2%.")

let cmd =
  let doc = "Regenerate the experiment tables of the PODC'14 set-intersection reproduction." in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const run $ quick $ only $ no_micro $ micro_only $ trace_overhead $ engine_scaling
      $ alloc_gate)

let () = exit (Cmd.eval cmd)
