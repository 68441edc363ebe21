(* Experiment harness entry point.

   `dune exec bench/main.exe` regenerates every table of the experiment
   matrix (T1..T13, F1, A1..A5 — registry entries 001..019; see
   experiments/README.md).  The tables measure communication, not time:
   wall-clock questions (ns per run, the tracing tax) go to
   `bash perf/run.sh`.  Options:

     --quick        smaller sweeps (CI-friendly)
     --only T1,T3   run a subset of the tables
     --engine-scaling  only the trial-engine throughput measurement
                       (writes BENCH_engine_scaling.json, throughput
                       unverified; fails if the merged results differ
                       across domain counts)
     --alloc-gate      only the allocations-per-trial regression gate
                       (exit 1 if any of its four cases — bucket k=1024,
                       tree-log-star k=4096, a guarded bucket attempt
                       at k=256 over a noisy link, and a Conform
                       one-round k=64 plus tree-r2 k=16 trial pair —
                       allocates more than its committed baseline plus
                       2%) *)

let run quick only engine_scaling alloc_gate =
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
  let (), w =
    Obsv.Window.measure (fun () ->
        print_endline "Set-intersection communication experiments";
        print_endline "(Brody-Chakrabarti-Kondapally-Woodruff-Yaroslavtsev, PODC 2014 reproduction)";
        print_newline ();
        Tables.run ~quick ~only)
  in
  (* Stderr, not stdout: the tables are deterministic for a fixed seed
     and the experiment registry's regen gate diffs two stdout runs. *)
  Printf.eprintf "\nTotal bench time: %.1fs\n" (float_of_int w.ns *. 1e-9)

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps and fewer trials (CI-friendly).")

let only =
  Arg.(
    value
    & opt (list string) []
    & info [ "only" ] ~docv:"TABLES" ~doc:"Comma-separated subset of tables to run (e.g. T1,T3,A2).")

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
          "Run only the allocations-per-trial regression gate: exit 1 if the bucket k=1024 \
           trial, the tree-log-star k=4096 trial, the guarded bucket k=256 attempt or the \
           conform-smallk trial pair allocates more bytes than its committed baseline plus 2%.")

let cmd =
  let doc = "Regenerate the experiment tables of the PODC'14 set-intersection reproduction." in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ quick $ only $ engine_scaling $ alloc_gate)

let () = exit (Cmd.eval cmd)
