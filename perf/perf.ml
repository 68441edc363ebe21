(* The repository benchmark (see perf/README.md).  From the repository root:

     bash perf/run.sh                                   # every workload, each in a child process
     bash perf/run.sh --workload bucket-k1024 --seed 7  # one workload, in this process
     bash perf/run.sh --workload tree-k4096 --trace 1   # per-layer metrics (also --traced)
     bash perf/run.sh --smoke                           # ~1% of each workload, with checks
     bash perf/run.sh --compare A.jsonl B.jsonl         # BENCHMARK.json bounds over two run sets

   A single-workload run prints a record line (seed, cores, OCaml version,
   deterministic fields, checks, metrics) and then, last, the result line
   {"correct", "attempted", "failed", "metrics"}.  Everything goes to
   stdout; append it to a file to build the run sets --compare reads. *)

open Cmdliner
open Perfbench

let one spec (w : Workloads.t) settings =
  let report = Measure.run spec w settings in
  print_endline (Stats.Json.to_string report.record);
  print_endline (Stats.Json.to_string (Measure.result_json report));
  0

(* Every workload, each in a fresh child process so no heap state carries
   over; their record lines go to stdout. *)
let every ~benchmark (settings : Measure.settings) =
  let args (w : Workloads.t) =
    [ "--benchmark"; benchmark; "--workload"; w.name; "--seed"; string_of_int settings.seed ]
    @ [ "--seconds"; Printf.sprintf "%g" settings.seconds ]
    @ [ "--trace"; (if settings.traced then "1" else "0") ]
    @ match settings.ops with Some n -> [ "--ops"; string_of_int n ] | None -> []
  in
  List.fold_left
    (fun status (w : Workloads.t) ->
      match Result.bind (Smoke.child (args w)) Smoke.parse with
      | Ok (record, result) ->
          print_endline (Stats.Json.to_string record);
          Printf.eprintf "%s: %s\n%!" w.name (Stats.Json.to_string result);
          if Stats.Json.member "correct" result = Some (Stats.Json.Bool true) then status else 1
      | Error e ->
          Printf.eprintf "%s: %s\n%!" w.name e;
          1)
    0 Workloads.all

let main workload seed seconds trace traced ops smoke compare files benchmark =
  let settings = { Measure.seed; seconds; ops; traced = traced || trace = 1 } in
  match Spec.load benchmark with
  | Error e ->
      prerr_endline ("perf: " ^ benchmark ^ ": " ^ e);
      2
  | Ok spec -> (
      if compare then
        match files with
        | [ a; b ] -> if Compare.run spec ~a ~b > 0 then 1 else 0
        | _ ->
            prerr_endline "perf: --compare takes two files of record lines";
            2
      else if smoke then Smoke.run spec ~benchmark
      else if trace <> 0 && trace <> 1 then begin
        prerr_endline "perf: --trace takes 0 or 1";
        2
      end
      else
        match workload with
        | None -> every ~benchmark settings
        | Some name -> (
            match Workloads.find name with
            | Some w -> one spec w settings
            | None ->
                let known = String.concat ", " Workloads.names in
                prerr_endline ("perf: unknown workload " ^ name ^ " (known: " ^ known ^ ")");
                2))

let cmd =
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Run one workload.")
  in
  let seed = Arg.(value & opt int 2014 & info [ "seed" ] ~doc:"Input and randomness seed.") in
  let seconds =
    Arg.(value & opt float 20.0 & info [ "seconds" ] ~doc:"Length of the measured phase.")
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~doc:"1: per-layer metrics from a traced run.")
  in
  let traced = Arg.(value & flag & info [ "traced" ] ~doc:"Same as --trace 1.") in
  let ops =
    let doc = "Run exactly $(docv) ops instead of --seconds." in
    Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N" ~doc)
  in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Short checked runs of every workload.") in
  let compare = Arg.(value & flag & info [ "compare" ] ~doc:"Compare two files of record lines.") in
  let files = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  let benchmark =
    let doc = "The benchmark declaration." in
    Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~doc)
  in
  Cmd.v (Cmd.info "perf" ~doc:"Seeded end-to-end and per-layer benchmark")
    Term.(
      const main $ workload $ seed $ seconds $ trace $ traced $ ops $ smoke $ compare $ files
      $ benchmark)

let () = exit (Cmd.eval' cmd)
