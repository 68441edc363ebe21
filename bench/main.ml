(* Experiment harness entry point.

   `dune exec bench/main.exe` regenerates every table of the experiment
   matrix (T1..T13, F1, A1..A5 — registry entries 001..019; see
   experiments/README.md).  The tables measure communication, not time:
   wall-clock questions (ns per run, the tracing tax) go to
   `bash perf/run.sh`.  Options:

     --quick        smaller sweeps (CI-friendly)
     --only T1,T3   run a subset of the tables

   Allocation is gated by `intersect_cli bench-regress --baseline
   BENCH_hotpath.json`. *)

let run quick only =
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

let cmd =
  let doc = "Regenerate the experiment tables of the PODC'14 set-intersection reproduction." in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ quick $ only)

let () = exit (Cmd.eval cmd)
