(* intersect-lint: static invariant checker for the whole tree.

   Two passes.  The syntactic pass parses every .ml/.mli under lib/,
   bin/, bench/, test/ and examples/ (minus the empty interface stubs
   dune generates for executables) with compiler-libs and enforces the
   repo's determinism, ambient-state, domain-hygiene, interface-coverage
   and flight-recorder conventions (rules R1, R2, R4..R6; phase names
   need no rule, as Trace.span takes an Obsv.Phases.t).  The typed pass — on
   by default — reads the .cmt artifacts dune produced, builds the
   whole-repo call graph, and enforces the semantic families: R7
   determinism taint, R8 metered-transport accounting, R9 cross-domain
   escape, R10 dead phases, R11 unreachable library bindings (perf/ is
   loaded as R11 roots only; see lib/lint/rules.mli and DESIGN.md).

   Exit codes: 0 clean, 1 findings, 2 could not run (bad root,
   malformed lint.allow, or typed pass requested without build
   artifacts).  Output is a pure function of the sources, so two runs
   over the same tree are byte-identical. *)

open Cmdliner

let run root json sarif rules syntactic explain =
  match explain with
  | Some id -> (
      match Lint.Rules.explain id with
      | Some text ->
          Printf.printf "%s\n\n%s\n" id text;
          0
      | None ->
          Printf.eprintf "intersect-lint: unknown rule %S (try --rules)\n" id;
          2)
  | None ->
      if rules then begin
        List.iter (fun (id, descr) -> Printf.printf "%-6s %s\n" id descr) Lint.Rules.catalogue;
        0
      end
      else (
        match Lint.Driver.run ~root ~typed:(not syntactic) () with
        | Error msg ->
            prerr_endline ("intersect-lint: " ^ msg);
            2
        | Ok { Lint.Driver.files; typed_modules; findings } ->
            if sarif then
              print_endline
                (Stats.Json.to_string
                   (Lint.Finding.sarif_json ~rules:Lint.Rules.catalogue ~files ~typed_modules
                      findings))
            else if json then
              print_endline
                (Stats.Json.to_string (Lint.Finding.report_json ~files ~typed_modules findings))
            else begin
              List.iter (fun f -> print_endline (Lint.Finding.to_line f)) findings;
              Printf.printf "intersect-lint: %d file%s scanned, %d typed module%s, %d finding%s\n"
                files
                (if files = 1 then "" else "s")
                typed_modules
                (if typed_modules = 1 then "" else "s")
                (List.length findings)
                (if List.length findings = 1 then "" else "s")
            end;
            if findings = [] then 0 else 1)

let root_arg =
  Arg.(
    value
    & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to lint (contains lib/, bin/, bench/, test/, examples/).")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")

let sarif_arg =
  Arg.(value & flag & info [ "sarif" ] ~doc:"Emit the report as SARIF 2.1.0 (implies machine output).")

let rules_arg =
  Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit without linting.")

let syntactic_arg =
  Arg.(
    value
    & flag
    & info [ "syntactic" ]
        ~doc:
          "Skip the typed (cmt-based) pass and run only the syntactic rules R1, R2 and \
           R4..R6. The typed pass is on by default; this exists for linting a tree that has not been built.")

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"RULE" ~doc:"Print the long-form rationale for one rule id and exit.")

let cmd =
  let doc = "static invariant checker for the intersection codebase" in
  Cmd.v
    (Cmd.info "intersect_lint" ~doc)
    Term.(const run $ root_arg $ json_arg $ sarif_arg $ rules_arg $ syntactic_arg $ explain_arg)

let () = exit (Cmd.eval' cmd)
