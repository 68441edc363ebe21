(* BENCHMARK.json, the benchmark's declaration: workloads, and for every
   metric its unit, direction and (end-to-end only) regression bound.  The
   benchmark prints its metrics in the order and with the units declared
   here. *)

type metric = { name : string; unit : string; lower_is_better : bool; bound : float option }
type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let ( let* ) = Result.bind

let field key conv j =
  match Option.bind (Stats.Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "BENCHMARK.json: missing or ill-typed %S" key)

let all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let metric ~bounded j =
  let* name = field "name" Stats.Json.to_string_opt j in
  let* unit = field "unit" Stats.Json.to_string_opt j in
  let* better = field "better" Stats.Json.to_string_opt j in
  let* lower_is_better =
    match better with
    | "lower" -> Ok true
    | "higher" -> Ok false
    | b -> Error (Printf.sprintf "BENCHMARK.json: %s: better is lower or higher, not %S" name b)
  in
  let* bound =
    if bounded then Result.map Option.some (field "bound" Stats.Json.to_float_opt j) else Ok None
  in
  Ok { name; unit; lower_is_better; bound }

let of_json j =
  let* workloads = field "workloads" Stats.Json.to_list_opt j in
  let* workloads = all (field "name" Stats.Json.to_string_opt) workloads in
  let* e2e = field "end_to_end" Stats.Json.to_list_opt j in
  let* end_to_end = all (metric ~bounded:true) e2e in
  let* layers = field "per_layer" Stats.Json.to_list_opt j in
  let* per_layer = all (metric ~bounded:false) layers in
  Ok { workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> Result.bind (Stats.Json.of_string text) of_json

(* [select declared computed] lays [computed] out in BENCHMARK.json's order,
   each with its declared unit.  A layer metric the workload does not
   exercise reads 0; a computed name BENCHMARK.json does not declare is a
   bug in the benchmark. *)
let select declared computed =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> m.name = name) declared) then
        invalid_arg ("perf: metric missing from BENCHMARK.json: " ^ name))
    computed;
  List.map
    (fun m -> (m.name, Option.value (List.assoc_opt m.name computed) ~default:0.0, m.unit))
    declared
