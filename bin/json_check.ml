(* Strict JSON validator over stdin: exits 0 iff the input is one valid
   JSON value (per RFC 8259) followed only by whitespace, as parsed by
   [Stats.Json.of_string].  Used by the tier-1 smoke to check that
   `intersect_cli trace` and `intersect_lint --json` emit loadable JSON.

   With [--<mode>], validates against the named schema from the shared
   catalogue in [Workload.Schemas] instead — the same implementations the
   experiment registry runs inside `intersect_cli experiments verify`, so
   "the artifact passes its json_check mode" means the same thing on the
   command line and in the registry gate.  Modes: [--bench-chaos],
   [--bench-hotpath], [--bench-sweep], [--bench-telemetry],
   [--experiments], [--lint-report], [--lint-sarif].

   Exit status: 0 valid, 1 invalid (one diagnosis line on stderr), 2
   usage error. *)

let usage () =
  prerr_endline
    (Printf.sprintf "usage: json_check [%s] < input.json"
       (String.concat " | " (List.map (( ^ ) "--") Workload.Schemas.modes)));
  exit 2

let () =
  let check =
    match Sys.argv with
    | [| _ |] -> fun input -> Result.map ignore (Stats.Json.of_string input)
    | [| _; flag |]
      when String.starts_with ~prefix:"--" flag
           && List.mem (String.sub flag 2 (String.length flag - 2)) Workload.Schemas.modes ->
        Workload.Schemas.check ~mode:(String.sub flag 2 (String.length flag - 2))
    | _ -> usage ()
  in
  match check (In_channel.input_all In_channel.stdin) with
  | Ok () -> exit 0
  | Error msg ->
      prerr_endline ("json_check: " ^ msg);
      exit 1
