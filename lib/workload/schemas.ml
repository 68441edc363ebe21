(* One named checker per committed JSON artifact.  These used to live
   inside bin/json_check.ml; they moved here so the experiment registry
   can enforce "the artifact passes its json_check mode" with the exact
   code path the command-line validator runs. *)

module J = Stats.Json

let check_bench_hotpath input =
  let fail msg = Error ("bench-hotpath schema: " ^ msg) in
  let field name cell = Option.bind (J.member name cell) in
  match J.of_string input with
  | Error msg -> fail ("unparseable: " ^ msg)
  | Ok doc -> (
      if Option.bind (J.member "bench" doc) J.to_string_opt <> Some "hotpath" then
        fail "missing \"bench\": \"hotpath\" marker"
      else
        match Option.bind (J.member "cells" doc) J.to_list_opt with
        | None -> fail "missing \"cells\" list"
        | Some [] -> fail "empty \"cells\" list"
        | Some cells ->
            let last_k = Hashtbl.create 16 in
            let check_cell i cell =
              let where msg = Printf.sprintf "cell %d: %s" i msg in
              match Option.bind (J.member "protocol" cell) J.to_string_opt with
              | None -> Error (where "missing \"protocol\"")
              | Some protocol -> (
                  let int_field name = field name cell J.to_int_opt in
                  let float_field name = field name cell J.to_float_opt in
                  match (int_field "k", float_field "alloc_bytes_per_run") with
                  | None, _ -> Error (where "missing \"k\"")
                  | _, None -> Error (where "missing \"alloc_bytes_per_run\"")
                  | Some k, Some alloc ->
                      if alloc < 0.0 then Error (where "negative \"alloc_bytes_per_run\"")
                      else if
                        List.exists
                          (fun name -> int_field name |> Option.fold ~none:true ~some:(fun v -> v <= 0))
                          [ "total_bits"; "messages"; "rounds" ]
                      then Error (where "deterministic fields missing or non-positive")
                      else if Hashtbl.find_opt last_k protocol |> Option.fold ~none:false ~some:(fun prev -> k <= prev)
                      then Error (where (Printf.sprintf "k not increasing for %S" protocol))
                      else begin
                        Hashtbl.replace last_k protocol k;
                        Ok ()
                      end)
            in
            List.to_seq cells
            |> Seq.fold_lefti
                 (fun acc i cell -> match acc with Error _ -> acc | Ok () -> check_cell i cell)
                 (Ok ()))

let check_bench_chaos input =
  let fail msg = Error ("bench-chaos schema: " ^ msg) in
  match J.of_string input with
  | Error msg -> fail ("unparseable: " ^ msg)
  | Ok doc -> (
      if Option.bind (J.member "bench" doc) J.to_string_opt <> Some "chaos" then
        fail "missing \"bench\": \"chaos\" marker"
      else
        match Option.bind (J.member "cells" doc) J.to_list_opt with
        | None -> fail "missing \"cells\" list"
        | Some [] -> fail "empty \"cells\" list"
        | Some cells ->
            let check_cell i cell =
              let where msg = Printf.sprintf "cell %d: %s" i msg in
              let str_field name = Option.bind (J.member name cell) J.to_string_opt in
              let int_field name = Option.bind (J.member name cell) J.to_int_opt in
              match (str_field "protocol", str_field "campaign") with
              | None, _ -> Error (where "missing \"protocol\"")
              | _, None -> Error (where "missing \"campaign\"")
              | Some _, Some _ -> (
                  let required =
                    [
                      "trials";
                      "completed";
                      "degraded";
                      "failed_safe";
                      "resumed";
                      "resumed_identical";
                      "wrong";
                      "attempts_total";
                      "rejected";
                      "stalled";
                      "crashed";
                      "deadline";
                    ]
                  in
                  match
                    List.find_opt
                      (fun name ->
                        match int_field name with None -> true | Some v -> v < 0)
                      required
                  with
                  | Some name ->
                      Error (where (Printf.sprintf "missing or negative %S" name))
                  | None ->
                      let get name = Option.get (int_field name) in
                      if get "trials" < 1 then Error (where "fewer than 1 trial")
                      else if
                        get "completed" + get "degraded" + get "failed_safe" <> get "trials"
                      then Error (where "outcome counts do not partition the trials")
                      else if get "wrong" <> 0 then
                        Error (where "wrong intersections reported")
                      else if get "resumed_identical" <> get "resumed" then
                        Error (where "a resumed session diverged from the uninterrupted run")
                      else Ok ())
            in
            List.to_seq cells
            |> Seq.fold_lefti
                 (fun acc i cell -> match acc with Error _ -> acc | Ok () -> check_cell i cell)
                 (Ok ()))

let check_bench_telemetry input =
  let fail msg = Error ("bench-telemetry schema: " ^ msg) in
  match J.of_string input with
  | Error msg -> fail ("unparseable: " ^ msg)
  | Ok doc -> (
      if Option.bind (J.member "bench" doc) J.to_string_opt <> Some "telemetry" then
        fail "missing \"bench\": \"telemetry\" marker"
      else
        let config = J.member "config" doc in
        let config_int name =
          Option.bind config (fun c -> Option.bind (J.member name c) J.to_int_opt)
        in
        let pass_field pass name =
          Option.bind (J.member pass doc) (fun p -> J.member name p)
        in
        let pass_float pass name = Option.bind (pass_field pass name) J.to_float_opt in
        let pass_int pass name = Option.bind (pass_field pass name) J.to_int_opt in
        let positive opt = Option.fold ~none:false ~some:(fun v -> v > 0.0) opt in
        match (config_int "k", config_int "sessions") with
        | None, _ | _, None -> fail "missing config k/sessions"
        | Some k, Some sessions ->
            if k < 1 || sessions < 1 then fail "config k/sessions must be >= 1"
            else if
              not
                (positive (pass_float "off" "ns_per_session")
                && positive (pass_float "on" "ns_per_session"))
            then fail "off/on ns_per_session missing or non-positive"
            else if
              (* The bench's whole point: the measured passes are the same
                 seeded sessions, so the deterministic fields must agree. *)
              J.member "deterministic_match" doc <> Some (J.Bool true)
            then fail "deterministic_match is not true"
            else begin
              match
                ( pass_int "off" "spent_bits",
                  pass_int "on" "spent_bits",
                  pass_int "off" "completed",
                  pass_int "on" "completed" )
              with
              | Some ob, Some nb, Some oc, Some nc ->
                  if ob <> nb || oc <> nc then
                    fail "off/on deterministic fields disagree"
                  else if ob <= 0 then fail "spent_bits must be positive"
                  else begin
                    match Option.bind (J.member "ratio" doc) J.to_float_opt with
                    | None -> fail "missing ratio"
                    | Some r ->
                        if r <= 0.0 then fail "non-positive ratio"
                        else if r > 1.25 then
                          fail
                            (Printf.sprintf
                               "overhead ratio %.3f exceeds the 1.25 regression bound" r)
                        else Ok ()
                  end
              | _ -> fail "off/on spent_bits/completed missing"
            end)

let check_bench_sweep input =
  let fail msg = Error ("bench-sweep schema: " ^ msg) in
  match J.of_string input with
  | Error msg -> fail ("unparseable: " ^ msg)
  | Ok doc -> (
      if Option.bind (J.member "bench" doc) J.to_string_opt <> Some "sweep" then
        fail "missing \"bench\": \"sweep\" marker"
      else
        let config = J.member "config" doc in
        let config_int name =
          Option.bind config (fun c -> Option.bind (J.member name c) J.to_int_opt)
        in
        match (config_int "seed", config_int "trials_per_cell") with
        | None, _ | _, None -> fail "missing config seed/trials_per_cell"
        | Some _, Some per_cell -> (
            if per_cell < 1 then fail "trials_per_cell must be >= 1"
            else
              let to_bool_opt = function Some (J.Bool b) -> Some b | _ -> None in
              match
                ( Option.bind (J.member "cells" doc) J.to_list_opt,
                  Option.bind (J.member "total_trials" doc) J.to_int_opt,
                  to_bool_opt (J.member "pass" doc) )
              with
              | None, _, _ -> fail "missing \"cells\" list"
              | Some [], _, _ -> fail "empty \"cells\" list"
              | _, None, _ -> fail "missing \"total_trials\""
              | _, _, None -> fail "missing \"pass\""
              | Some cells, Some total, Some _ ->
                  let check_cell i cell =
                    let where msg = Printf.sprintf "cell %d: %s" i msg in
                    let str_field name = Option.bind (J.member name cell) J.to_string_opt in
                    let int_field name = Option.bind (J.member name cell) J.to_int_opt in
                    let float_field name = Option.bind (J.member name cell) J.to_float_opt in
                    let bool_field name = to_bool_opt (J.member name cell) in
                    match (str_field "kind", str_field "protocol") with
                    | None, _ -> Error (where "missing \"kind\"")
                    | Some kind, _ when kind <> "clean" && kind <> "faulted" ->
                        Error (where "kind must be \"clean\" or \"faulted\"")
                    | _, None -> Error (where "missing \"protocol\"")
                    | Some kind, Some _ -> (
                        match
                          List.find_opt
                            (fun name ->
                              match int_field name with None -> true | Some v -> v < 0)
                            [ "k"; "trials"; "failures"; "degraded" ]
                        with
                        | Some name -> Error (where (Printf.sprintf "missing or negative %S" name))
                        | None -> (
                            let get name = Option.get (int_field name) in
                            if get "trials" < 1 then Error (where "fewer than 1 trial")
                            else if get "failures" > get "trials" then
                              Error (where "more failures than trials")
                            else if kind = "faulted" && J.member "plan" cell = None then
                              Error (where "faulted cell missing \"plan\"")
                            else
                              match
                                ( float_field "error_limit",
                                  float_field "error_lower95",
                                  float_field "error_upper95" )
                              with
                              | None, _, _ | _, None, _ | _, _, None ->
                                  Error (where "missing error bound fields")
                              | Some _, Some lo, Some hi ->
                                  if lo < 0.0 || hi > 1.0 || lo > hi then
                                    Error (where "Wilson bounds out of order")
                                  else if
                                    List.exists
                                      (fun name -> bool_field name = None)
                                      [ "error_ok"; "rounds_ok"; "bits_ok"; "pass" ]
                                  then Error (where "missing gate booleans")
                                  else if
                                    bool_field "pass"
                                    <> Some
                                         (bool_field "error_ok" = Some true
                                         && bool_field "rounds_ok" = Some true
                                         && bool_field "bits_ok" = Some true)
                                  then Error (where "pass is not the gate conjunction")
                                  else Ok ()))
                  in
                  let cell_trials =
                    List.fold_left
                      (fun acc cell ->
                        acc
                        + Option.value ~default:0
                            (Option.bind (J.member "trials" cell) J.to_int_opt))
                      0 cells
                  in
                  if cell_trials <> total then
                    fail
                      (Printf.sprintf "total_trials %d does not match cell sum %d" total
                         cell_trials)
                  else
                    List.to_seq cells
                    |> Seq.fold_lefti
                         (fun acc i cell ->
                           match acc with Error _ -> acc | Ok () -> check_cell i cell)
                         (Ok ())))

let check_lint_report input =
  let fail msg = Error ("lint-report schema: " ^ msg) in
  match J.of_string input with
  | Error msg -> fail ("unparseable: " ^ msg)
  | Ok doc -> (
      if Option.bind (J.member "tool" doc) J.to_string_opt <> Some "intersect-lint" then
        fail "missing \"tool\": \"intersect-lint\" marker"
      else
        let int_field name = Option.bind (J.member name doc) J.to_int_opt in
        match (int_field "files", int_field "typed_modules", int_field "count") with
        | None, _, _ -> fail "missing \"files\""
        | _, None, _ -> fail "missing \"typed_modules\""
        | _, _, None -> fail "missing \"count\""
        | Some files, Some typed_modules, Some count -> (
            if files < 1 then fail "files must be >= 1"
            else if typed_modules < 0 then fail "negative typed_modules"
            else
              match Option.bind (J.member "findings" doc) J.to_list_opt with
              | None -> fail "missing \"findings\" list"
              | Some findings ->
                  if List.length findings <> count then
                    fail
                      (Printf.sprintf "count %d does not match %d finding(s)" count
                         (List.length findings))
                  else
                    let check_finding i f =
                      let where msg = Printf.sprintf "finding %d: %s" i msg in
                      let str name = Option.bind (J.member name f) J.to_string_opt in
                      let int name = Option.bind (J.member name f) J.to_int_opt in
                      match (str "rule", str "file", int "line", int "col", str "message") with
                      | None, _, _, _, _ -> Error (where "missing \"rule\"")
                      | _, None, _, _, _ -> Error (where "missing \"file\"")
                      | _, _, None, _, _ -> Error (where "missing \"line\"")
                      | _, _, _, None, _ -> Error (where "missing \"col\"")
                      | _, _, _, _, None -> Error (where "missing \"message\"")
                      | Some rule, Some file, Some line, Some col, Some message ->
                          if rule = "" || file = "" || message = "" then
                            Error (where "empty rule/file/message")
                          else if line < 1 || col < 0 then
                            Error (where "line must be >= 1 and col >= 0")
                          else Ok ()
                    in
                    List.to_seq findings
                    |> Seq.fold_lefti
                         (fun acc i f -> match acc with Error _ -> acc | Ok () -> check_finding i f)
                         (Ok ())))

let check_lint_sarif input =
  let fail msg = Error ("lint-sarif schema: " ^ msg) in
  match J.of_string input with
  | Error msg -> fail ("unparseable: " ^ msg)
  | Ok doc -> (
      if Option.bind (J.member "version" doc) J.to_string_opt <> Some "2.1.0" then
        fail "missing \"version\": \"2.1.0\""
      else if J.member "$schema" doc = None then fail "missing \"$schema\""
      else
        match Option.bind (J.member "runs" doc) J.to_list_opt with
        | Some [ run ] -> (
            let driver = Option.bind (J.member "tool" run) (J.member "driver") in
            match Option.bind driver (fun d -> Option.bind (J.member "name" d) J.to_string_opt) with
            | Some "intersect-lint" -> (
                let rule_ids =
                  Option.bind driver (fun d -> Option.bind (J.member "rules" d) J.to_list_opt)
                  |> Option.value ~default:[]
                  |> List.filter_map (fun r -> Option.bind (J.member "id" r) J.to_string_opt)
                in
                if rule_ids = [] then fail "empty driver rule catalogue"
                else
                  match Option.bind (J.member "results" run) J.to_list_opt with
                  | None -> fail "missing \"results\" list"
                  | Some results ->
                      let check_result i r =
                        let where msg = Printf.sprintf "result %d: %s" i msg in
                        let location =
                          match Option.bind (J.member "locations" r) J.to_list_opt with
                          | Some [ l ] -> J.member "physicalLocation" l
                          | _ -> None
                        in
                        let region = Option.bind location (J.member "region") in
                        let region_int name =
                          Option.bind region (fun rg -> Option.bind (J.member name rg) J.to_int_opt)
                        in
                        match Option.bind (J.member "ruleId" r) J.to_string_opt with
                        | None -> Error (where "missing \"ruleId\"")
                        | Some rule when not (List.mem rule rule_ids) ->
                            Error (where (Printf.sprintf "ruleId %S not in the catalogue" rule))
                        | Some _ ->
                            if Option.bind (J.member "level" r) J.to_string_opt <> Some "error" then
                              Error (where "level must be \"error\"")
                            else if
                              Option.bind (J.member "message" r) (fun m ->
                                  Option.bind (J.member "text" m) J.to_string_opt)
                              |> Option.fold ~none:true ~some:(( = ) "")
                            then Error (where "missing message text")
                            else if
                              Option.bind location (fun pl ->
                                  Option.bind (J.member "artifactLocation" pl) (fun al ->
                                      Option.bind (J.member "uri" al) J.to_string_opt))
                              |> Option.fold ~none:true ~some:(( = ) "")
                            then Error (where "missing artifact uri")
                            else if
                              (* SARIF regions are fully 1-based. *)
                              region_int "startLine" |> Option.fold ~none:true ~some:(fun v -> v < 1)
                              || region_int "startColumn"
                                 |> Option.fold ~none:true ~some:(fun v -> v < 1)
                            then Error (where "region start must be 1-based")
                            else Ok ()
                      in
                      List.to_seq results
                      |> Seq.fold_lefti
                           (fun acc i r ->
                             match acc with Error _ -> acc | Ok () -> check_result i r)
                           (Ok ()))
            | _ -> fail "driver name is not \"intersect-lint\"")
        | _ -> fail "\"runs\" must hold exactly one run")

(* The experiments.json registry index (`intersect_cli experiments
   export`).  The structural registry invariants (dense ids, valid
   lifecycle states, artifact fields only in pairs) are re-checked here so
   a hand-edited index cannot smuggle a state the registry itself would
   reject. *)
let check_experiments input =
  let fail msg = Error ("experiments schema: " ^ msg) in
  let statuses = [ "Draft"; "Running"; "Complete"; "Superseded" ] in
  let regens = [ "gate"; "diff"; "none" ] in
  match J.of_string input with
  | Error msg -> fail ("unparseable: " ^ msg)
  | Ok doc -> (
      if Option.bind (J.member "registry" doc) J.to_string_opt <> Some "experiments" then
        fail "missing \"registry\": \"experiments\" marker"
      else
        match
          ( Option.bind (J.member "count" doc) J.to_int_opt,
            Option.bind (J.member "entries" doc) J.to_list_opt )
        with
        | None, _ -> fail "missing \"count\""
        | _, None -> fail "missing \"entries\" list"
        | Some _, Some [] -> fail "empty \"entries\" list"
        | Some count, Some entries ->
            if List.length entries <> count then
              fail (Printf.sprintf "count %d does not match %d entries" count (List.length entries))
            else
              let check_entry i entry =
                let where msg = Printf.sprintf "entry %d: %s" i msg in
                let str name = Option.bind (J.member name entry) J.to_string_opt in
                let nonempty name =
                  match str name with
                  | None -> Error (where (Printf.sprintf "missing %S" name))
                  | Some "" -> Error (where (Printf.sprintf "empty %S" name))
                  | Some s -> Ok s
                in
                match Option.bind (J.member "id" entry) J.to_int_opt with
                | None -> Error (where "missing \"id\"")
                | Some id when id <> i + 1 ->
                    Error (where (Printf.sprintf "id %d breaks the dense 1..N order" id))
                | Some _ -> (
                    let required =
                      [ "file"; "slug"; "title"; "status"; "anchor"; "roadmap";
                        "hypothesis"; "reproduce"; "regen" ]
                    in
                    let first_bad =
                      List.fold_left
                        (fun acc name ->
                          match acc with Error _ -> acc | Ok () -> Result.map ignore (nonempty name))
                        (Ok ()) required
                    in
                    match first_bad with
                    | Error _ as e -> e
                    | Ok () ->
                        let get name = Option.get (str name) in
                        if not (List.mem (get "status") statuses) then
                          Error (where (Printf.sprintf "unknown status %S" (get "status")))
                        else if not (List.mem (get "regen") regens) then
                          Error (where (Printf.sprintf "unknown regen mode %S" (get "regen")))
                        else if
                          not
                            (String.length (get "file") > String.length "experiments/"
                            && String.starts_with ~prefix:"experiments/" (get "file")
                            && String.ends_with ~suffix:".md" (get "file"))
                        then Error (where "file is not an experiments/*.md path")
                        else
                          let artifact = str "artifact" in
                          let keys =
                            Option.bind (J.member "artifact_keys" entry) J.to_list_opt
                            |> Option.value ~default:[]
                          in
                          if artifact = None && (keys <> [] || str "json_check" <> None) then
                            Error (where "artifact_keys/json_check without an artifact")
                          else Ok ())
              in
              List.to_seq entries
              |> Seq.fold_lefti
                   (fun acc i entry -> match acc with Error _ -> acc | Ok () -> check_entry i entry)
                   (Ok ()))

let catalogue =
  [
    ("bench-chaos", check_bench_chaos);
    ("bench-hotpath", check_bench_hotpath);
    ("bench-sweep", check_bench_sweep);
    ("bench-telemetry", check_bench_telemetry);
    ("experiments", check_experiments);
    ("lint-report", check_lint_report);
    ("lint-sarif", check_lint_sarif);
  ]

let modes = List.map fst catalogue
let bench_modes = List.filter (String.starts_with ~prefix:"bench-") modes

let check ~mode input =
  match List.assoc_opt mode catalogue with
  | Some f -> f input
  | None -> Error (Printf.sprintf "unknown schema mode %S (known: %s)" mode (String.concat ", " modes))
