(* [--smoke]: every workload at about 1% of a measured run's op count,
   untraced and traced, each in its own child process, twice over.  Fails
   on a wrong or failed op, a probe that changed a result, a negative
   switch residual, a metric BENCHMARK.json does not declare, or a
   deterministic field that differs between the two passes or between the
   untraced and traced run of one pass. *)

(* Runs this executable again with [args]; its stdout lines, once it exits 0. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok lines
  | Unix.WEXITED c -> Error (Printf.sprintf "exited with %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "killed by signal %d" s)

(* The record and result lines of a run: the last line is the result, and
   the record is the last line before it tagged ["perf": "record"]. *)
let parse lines =
  let json l = Result.to_option (Stats.Json.of_string l) in
  match List.rev lines with
  | last :: earlier -> (
      let record =
        List.find_map
          (fun l ->
            match json l with
            | Some j when Stats.Json.member "perf" j = Some (Stats.Json.Str "record") -> Some j
            | _ -> None)
          earlier
      in
      match (json last, record) with
      | Some result, Some record -> Ok (record, result)
      | None, _ -> Error "last line is not JSON"
      | _, None -> Error "no record line")
  | [] -> Error "no output"

let result_problems (spec : Spec.t) ~traced result =
  let open Stats.Json in
  let keys = match result with Obj fields -> List.map fst fields | _ -> [] in
  let metrics = match member "metrics" result with Some (Obj m) -> m | _ -> [] in
  let expected = if traced then spec.per_layer else spec.end_to_end in
  let value m = Option.bind (member "value" m) to_float_opt in
  (if keys = [ "correct"; "attempted"; "failed"; "metrics" ] then []
   else [ "result line keys: " ^ String.concat ", " keys ])
  @ (if member "correct" result = Some (Bool true) then [] else [ "correct is not true" ])
  @ (if member "failed" result = Some (Int 0) then [] else [ "failed is not 0" ])
  @ (if List.map fst metrics = List.map (fun (m : Spec.metric) -> m.name) expected then []
     else [ "metric names differ from BENCHMARK.json" ])
  @ List.filter_map
      (fun (name, m) ->
        match value m with
        | Some v when Float.is_finite v && (traced || v > 0.0) -> None
        | _ -> Some ("bad value for " ^ name))
      metrics

let checks_problems record =
  match Stats.Json.member "checks" record with
  | Some (Stats.Json.Obj checks) ->
      List.filter_map
        (fun (name, v) ->
          if v = Stats.Json.Int 0 then None else Some (name ^ " = " ^ Stats.Json.to_string v))
        checks
  | _ -> []

let deterministic record =
  match Stats.Json.member "deterministic" record with
  | Some (Stats.Json.Obj fields) -> fields
  | _ -> []

let run (spec : Spec.t) ~benchmark =
  let problems = ref [] in
  let problem what = problems := what :: !problems in
  if spec.workloads <> Workloads.names then
    problem ("workloads differ: BENCHMARK.json has " ^ String.concat ", " spec.workloads);
  let one pass (w : Workloads.t) traced =
    let mode = if traced then "traced" else "untraced" in
    let tag = Printf.sprintf "pass %d %s %s" pass w.name mode in
    let args =
      [ "--benchmark"; benchmark; "--workload"; w.name; "--seed"; "2014" ]
      @ [ "--ops"; string_of_int w.smoke_ops; "--trace"; (if traced then "1" else "0") ]
    in
    match Result.bind (child args) parse with
    | Error e ->
        problem (tag ^ ": " ^ e);
        None
    | Ok (record, result) ->
        List.iter
          (fun p -> problem (tag ^ ": " ^ p))
          (result_problems spec ~traced result @ checks_problems record);
        Some (deterministic record)
  in
  let pass n =
    List.map
      (fun w ->
        let untraced = one n w false in
        (w, untraced, one n w true))
      Workloads.all
  in
  let first = pass 1 in
  let second = pass 2 in
  List.iter2
    (fun ((w : Workloads.t), u1, t1) (_, u2, t2) ->
      if u1 <> u2 then problem (w.name ^ ": untraced deterministic fields differ between passes");
      if t1 <> t2 then problem (w.name ^ ": traced deterministic fields differ between passes");
      match (u1, t1) with
      | Some u, Some t ->
          let common = List.filter (fun (k, _) -> List.mem_assoc k u) t in
          if common <> u then problem (w.name ^ ": deterministic fields differ traced vs untraced")
      | _ -> ())
    first second;
  match List.rev !problems with
  | [] ->
      prerr_endline "smoke: ok";
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: FAIL " ^ p)) ps;
      1
