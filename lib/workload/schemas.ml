(* One named checker per committed JSON artifact.  These used to live
   inside bin/json_check.ml; they moved here so the experiment registry
   can enforce "the artifact passes its json_check mode" with the exact
   code path the command-line validator runs.  [check] parses the
   document once and hands the value to the mode's checker. *)

module J = Stats.Json

(* Typed field reads: [None] for a missing field or one of another type. *)
let field conv name v = Option.bind (J.member name v) conv
let str = field J.to_string_opt
let int = field J.to_int_opt
let list = field J.to_list_opt
let float = field J.to_float_opt
let bool = field (function J.Bool b -> Some b | _ -> None)

(* [first_error check items] is [check i item]'s first [Error] over the
   items in order, or [Ok ()]. *)
let first_error check items =
  List.to_seq items
  |> Seq.fold_lefti (fun acc i x -> match acc with Error _ -> acc | Ok () -> check i x) (Ok ())

(* The first of [names] that [cell] lacks as an int or holds negative. *)
let missing_or_negative names cell =
  List.find_opt (fun name -> match int name cell with None -> true | Some v -> v < 0) names

let check_bench_hotpath doc =
  if str "bench" doc <> Some "hotpath" then Error "missing \"bench\": \"hotpath\" marker"
  else
    match list "cells" doc with
    | None -> Error "missing \"cells\" list"
    | Some [] -> Error "empty \"cells\" list"
    | Some cells ->
        let last_k = Hashtbl.create 16 in
        let check_cell i cell =
          let where msg = Printf.sprintf "cell %d: %s" i msg in
          match (str "protocol" cell, int "k" cell, float "alloc_bytes_per_run" cell) with
          | None, _, _ -> Error (where "missing \"protocol\"")
          | _, None, _ -> Error (where "missing \"k\"")
          | _, _, None -> Error (where "missing \"alloc_bytes_per_run\"")
          | Some protocol, Some k, Some alloc ->
              if alloc < 0.0 then Error (where "negative \"alloc_bytes_per_run\"")
              else if
                List.exists
                  (fun name -> int name cell |> Option.fold ~none:true ~some:(fun v -> v <= 0))
                  [ "total_bits"; "messages"; "rounds" ]
              then Error (where "deterministic fields missing or non-positive")
              else if
                Hashtbl.find_opt last_k protocol
                |> Option.fold ~none:false ~some:(fun prev -> k <= prev)
              then Error (where (Printf.sprintf "k not increasing for %S" protocol))
              else begin
                Hashtbl.replace last_k protocol k;
                Ok ()
              end
        in
        first_error check_cell cells

let check_bench_chaos doc =
  if str "bench" doc <> Some "chaos" then Error "missing \"bench\": \"chaos\" marker"
  else
    match list "cells" doc with
    | None -> Error "missing \"cells\" list"
    | Some [] -> Error "empty \"cells\" list"
    | Some cells ->
        let check_cell i cell =
          let where msg = Printf.sprintf "cell %d: %s" i msg in
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
          match (str "protocol" cell, str "campaign" cell, missing_or_negative required cell) with
          | None, _, _ -> Error (where "missing \"protocol\"")
          | _, None, _ -> Error (where "missing \"campaign\"")
          | _, _, Some name -> Error (where (Printf.sprintf "missing or negative %S" name))
          | Some _, Some _, None ->
              let get name = Option.get (int name cell) in
              if get "trials" < 1 then Error (where "fewer than 1 trial")
              else if get "completed" + get "degraded" + get "failed_safe" <> get "trials" then
                Error (where "outcome counts do not partition the trials")
              else if get "wrong" <> 0 then Error (where "wrong intersections reported")
              else if get "resumed_identical" <> get "resumed" then
                Error (where "a resumed session diverged from the uninterrupted run")
              else Ok ()
        in
        first_error check_cell cells

let check_bench_telemetry doc =
  let config_int name = Option.bind (J.member "config" doc) (int name) in
  let pass_field conv pass name = Option.bind (J.member pass doc) (field conv name) in
  let positive opt = Option.fold ~none:false ~some:(fun v -> v > 0.0) opt in
  if str "bench" doc <> Some "telemetry" then Error "missing \"bench\": \"telemetry\" marker"
  else
    match (config_int "k", config_int "sessions") with
    | None, _ | _, None -> Error "missing config k/sessions"
    | Some k, Some sessions -> (
        let ns pass = pass_field J.to_float_opt pass "ns_per_session" in
        let pass_int = pass_field J.to_int_opt in
        if k < 1 || sessions < 1 then Error "config k/sessions must be >= 1"
        else if not (positive (ns "off") && positive (ns "on")) then
          Error "off/on ns_per_session missing or non-positive"
        else if
          (* The bench's whole point: the measured passes are the same
             seeded sessions, so the deterministic fields must agree. *)
          bool "deterministic_match" doc <> Some true
        then Error "deterministic_match is not true"
        else
          match
            ( pass_int "off" "spent_bits",
              pass_int "on" "spent_bits",
              pass_int "off" "completed",
              pass_int "on" "completed" )
          with
          | Some ob, Some nb, Some oc, Some nc -> (
              if ob <> nb || oc <> nc then Error "off/on deterministic fields disagree"
              else if ob <= 0 then Error "spent_bits must be positive"
              else
                match float "ratio" doc with
                | None -> Error "missing ratio"
                | Some r ->
                    if r <= 0.0 then Error "non-positive ratio"
                    else if r > 1.25 then
                      Error
                        (Printf.sprintf "overhead ratio %.3f exceeds the 1.25 regression bound" r)
                    else Ok ())
          | _ -> Error "off/on spent_bits/completed missing")

let check_bench_sweep doc =
  let config_int name = Option.bind (J.member "config" doc) (int name) in
  let check_cell i cell =
    let where msg = Printf.sprintf "cell %d: %s" i msg in
    let get name = Option.get (int name cell) in
    match
      ( str "kind" cell,
        str "protocol" cell,
        missing_or_negative [ "k"; "trials"; "failures"; "degraded" ] cell )
    with
    | None, _, _ -> Error (where "missing \"kind\"")
    | Some kind, _, _ when kind <> "clean" && kind <> "faulted" ->
        Error (where "kind must be \"clean\" or \"faulted\"")
    | _, None, _ -> Error (where "missing \"protocol\"")
    | _, _, Some name -> Error (where (Printf.sprintf "missing or negative %S" name))
    | Some kind, Some _, None -> (
        if get "trials" < 1 then Error (where "fewer than 1 trial")
        else if get "failures" > get "trials" then Error (where "more failures than trials")
        else if kind = "faulted" && J.member "plan" cell = None then
          Error (where "faulted cell missing \"plan\"")
        else
          match
            (float "error_limit" cell, float "error_lower95" cell, float "error_upper95" cell)
          with
          | None, _, _ | _, None, _ | _, _, None -> Error (where "missing error bound fields")
          | Some _, Some lo, Some hi ->
              let flag name = bool name cell in
              if lo < 0.0 || hi > 1.0 || lo > hi then Error (where "Wilson bounds out of order")
              else if
                List.exists
                  (fun name -> flag name = None)
                  [ "error_ok"; "rounds_ok"; "bits_ok"; "pass" ]
              then Error (where "missing gate booleans")
              else if
                flag "pass"
                <> Some
                     (flag "error_ok" = Some true
                     && flag "rounds_ok" = Some true
                     && flag "bits_ok" = Some true)
              then Error (where "pass is not the gate conjunction")
              else Ok ())
  in
  if str "bench" doc <> Some "sweep" then Error "missing \"bench\": \"sweep\" marker"
  else
    match (config_int "seed", config_int "trials_per_cell") with
    | None, _ | _, None -> Error "missing config seed/trials_per_cell"
    | Some _, Some per_cell when per_cell < 1 -> Error "trials_per_cell must be >= 1"
    | Some _, Some _ -> (
        match (list "cells" doc, int "total_trials" doc, bool "pass" doc) with
        | None, _, _ -> Error "missing \"cells\" list"
        | Some [], _, _ -> Error "empty \"cells\" list"
        | _, None, _ -> Error "missing \"total_trials\""
        | _, _, None -> Error "missing \"pass\""
        | Some cells, Some total, Some _ ->
            let cell_trials =
              List.fold_left
                (fun acc cell -> acc + Option.value ~default:0 (int "trials" cell))
                0 cells
            in
            if cell_trials <> total then
              Error
                (Printf.sprintf "total_trials %d does not match cell sum %d" total cell_trials)
            else first_error check_cell cells)

let check_lint_report doc =
  let check_finding i f =
    let where msg = Printf.sprintf "finding %d: %s" i msg in
    match (str "rule" f, str "file" f, int "line" f, int "col" f, str "message" f) with
    | None, _, _, _, _ -> Error (where "missing \"rule\"")
    | _, None, _, _, _ -> Error (where "missing \"file\"")
    | _, _, None, _, _ -> Error (where "missing \"line\"")
    | _, _, _, None, _ -> Error (where "missing \"col\"")
    | _, _, _, _, None -> Error (where "missing \"message\"")
    | Some rule, Some file, Some line, Some col, Some message ->
        if rule = "" || file = "" || message = "" then Error (where "empty rule/file/message")
        else if line < 1 || col < 0 then Error (where "line must be >= 1 and col >= 0")
        else Ok ()
  in
  if str "tool" doc <> Some "intersect-lint" then
    Error "missing \"tool\": \"intersect-lint\" marker"
  else
    match (int "files" doc, int "typed_modules" doc, int "count" doc) with
    | None, _, _ -> Error "missing \"files\""
    | _, None, _ -> Error "missing \"typed_modules\""
    | _, _, None -> Error "missing \"count\""
    | Some files, Some typed_modules, Some count -> (
        if files < 1 then Error "files must be >= 1"
        else if typed_modules < 0 then Error "negative typed_modules"
        else
          match list "findings" doc with
          | None -> Error "missing \"findings\" list"
          | Some findings ->
              if List.length findings <> count then
                Error
                  (Printf.sprintf "count %d does not match %d finding(s)" count
                     (List.length findings))
              else first_error check_finding findings)

let check_lint_sarif doc =
  let check_result rule_ids i r =
    let where msg = Printf.sprintf "result %d: %s" i msg in
    let location =
      match list "locations" r with Some [ l ] -> J.member "physicalLocation" l | _ -> None
    in
    let region_int name =
      Option.bind location (fun l -> Option.bind (J.member "region" l) (int name))
    in
    let empty = Option.fold ~none:true ~some:(( = ) "") in
    let below_one = Option.fold ~none:true ~some:(fun v -> v < 1) in
    match str "ruleId" r with
    | None -> Error (where "missing \"ruleId\"")
    | Some rule when not (List.mem rule rule_ids) ->
        Error (where (Printf.sprintf "ruleId %S not in the catalogue" rule))
    | Some _ ->
        if str "level" r <> Some "error" then Error (where "level must be \"error\"")
        else if empty (Option.bind (J.member "message" r) (str "text")) then
          Error (where "missing message text")
        else if
          empty
            (Option.bind location (fun pl ->
                 Option.bind (J.member "artifactLocation" pl) (str "uri")))
        then Error (where "missing artifact uri")
        else if
          (* SARIF regions are fully 1-based. *)
          below_one (region_int "startLine") || below_one (region_int "startColumn")
        then Error (where "region start must be 1-based")
        else Ok ()
  in
  if str "version" doc <> Some "2.1.0" then Error "missing \"version\": \"2.1.0\""
  else if J.member "$schema" doc = None then Error "missing \"$schema\""
  else
    match list "runs" doc with
    | Some [ run ] -> (
        let driver = Option.bind (J.member "tool" run) (J.member "driver") in
        match Option.bind driver (str "name") with
        | Some "intersect-lint" -> (
            let rule_ids =
              Option.bind driver (list "rules")
              |> Option.value ~default:[]
              |> List.filter_map (str "id")
            in
            if rule_ids = [] then Error "empty driver rule catalogue"
            else
              match list "results" run with
              | None -> Error "missing \"results\" list"
              | Some results -> first_error (check_result rule_ids) results)
        | _ -> Error "driver name is not \"intersect-lint\"")
    | _ -> Error "\"runs\" must hold exactly one run"

(* The experiments.json registry index (`intersect_cli experiments
   export`).  The structural registry invariants (dense ids, valid
   lifecycle states, artifact fields only in pairs) are re-checked here so
   a hand-edited index cannot smuggle a state the registry itself would
   reject. *)
let check_experiments doc =
  let statuses = [ "Draft"; "Running"; "Complete"; "Superseded" ] in
  let regens = [ "gate"; "diff"; "none" ] in
  let required =
    [ "file"; "slug"; "title"; "status"; "anchor"; "roadmap"; "hypothesis"; "reproduce"; "regen" ]
  in
  let check_entry i entry =
    let where msg = Printf.sprintf "entry %d: %s" i msg in
    let str name = str name entry in
    let get name = Option.value ~default:"" (str name) in
    match (int "id" entry, List.find_opt (fun name -> get name = "") required) with
    | None, _ -> Error (where "missing \"id\"")
    | Some id, _ when id <> i + 1 ->
        Error (where (Printf.sprintf "id %d breaks the dense 1..N order" id))
    | Some _, Some name ->
        Error (where (Printf.sprintf "%s %S" (if str name = None then "missing" else "empty") name))
    | Some _, None ->
        let file = get "file" in
        if not (List.mem (get "status") statuses) then
          Error (where (Printf.sprintf "unknown status %S" (get "status")))
        else if not (List.mem (get "regen") regens) then
          Error (where (Printf.sprintf "unknown regen mode %S" (get "regen")))
        else if
          not
            (String.length file > String.length "experiments/"
            && String.starts_with ~prefix:"experiments/" file
            && String.ends_with ~suffix:".md" file)
        then Error (where "file is not an experiments/*.md path")
        else if
          str "artifact" = None
          && (list "artifact_keys" entry |> Option.fold ~none:false ~some:(( <> ) [])
             || str "json_check" <> None)
        then Error (where "artifact_keys/json_check without an artifact")
        else Ok ()
  in
  if str "registry" doc <> Some "experiments" then
    Error "missing \"registry\": \"experiments\" marker"
  else
    match (int "count" doc, list "entries" doc) with
    | None, _ -> Error "missing \"count\""
    | _, None -> Error "missing \"entries\" list"
    | Some _, Some [] -> Error "empty \"entries\" list"
    | Some count, Some entries ->
        if List.length entries <> count then
          Error (Printf.sprintf "count %d does not match %d entries" count (List.length entries))
        else first_error check_entry entries

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

(* One place that names the mode in an error. *)
let with_checker ~mode f =
  match List.assoc_opt mode catalogue with
  | None ->
      Error (Printf.sprintf "unknown schema mode %S (known: %s)" mode (String.concat ", " modes))
  | Some checker -> f checker |> Result.map_error (Printf.sprintf "%s schema: %s" mode)

let check_json ~mode doc = with_checker ~mode (fun checker -> checker doc)

let check ~mode input =
  with_checker ~mode (fun checker ->
      Result.bind (Result.map_error (( ^ ) "unparseable: ") (J.of_string input)) checker)
