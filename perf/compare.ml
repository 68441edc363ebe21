(* [--compare A B]: every (end-to-end metric, workload) pair of two sets of
   untraced runs, judged against BENCHMARK.json's bounds.

   - [regressed]: B's median is worse than A's by more than the bound;
   - [unresolved]: a side's own spread (inter-quartile distance over
     median) is wider than the bound, or a side has fewer than two runs,
     so the difference cannot be told from noise — unless every run of B
     reads better than every run of A;
   - [within] otherwise.  No verdict claims a gain. *)

type verdict = Within | Regressed | Unresolved

let verdict_name = function
  | Within -> "within"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Relative change of B against A, positive when B is worse. *)
let worsening ~lower_is_better ~a ~b =
  let d = (b -. a) /. Float.abs a in
  if lower_is_better then d else -.d

let judge ~lower_is_better ~bound a b =
  let all_better =
    Array.for_all
      (fun y -> Array.for_all (fun x -> if lower_is_better then y < x else y > x) a)
      b
  in
  let noisy =
    Array.length a < 2 || Array.length b < 2 || Timing.spread a > bound || Timing.spread b > bound
  in
  if noisy then if all_better then Within else Unresolved
  else
    let w = worsening ~lower_is_better ~a:(Timing.median a) ~b:(Timing.median b) in
    if w > bound then Regressed else Within

(* Untraced record lines of a file: (workload, metric values). *)
let records path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
         match Stats.Json.of_string line with
         | Ok j
           when Stats.Json.member "perf" j = Some (Stats.Json.Str "record")
                && Stats.Json.member "trace" j = Some (Stats.Json.Int 0) -> (
             match (Stats.Json.member "workload" j, Stats.Json.member "metrics" j) with
             | Some (Stats.Json.Str w), Some (Stats.Json.Obj metrics) ->
                 let number (k, v) = Option.map (fun f -> (k, f)) (Stats.Json.to_float_opt v) in
                 Some (w, List.filter_map number metrics)
             | _ -> None)
         | _ -> None)

let values recs ~workload ~metric =
  Array.of_list
    (List.filter_map (fun (w, ms) -> if w = workload then List.assoc_opt metric ms else None) recs)

(* Prints one row per pair; returns the number of regressions. *)
let run (spec : Spec.t) ~a ~b =
  let ra = records a and rb = records b in
  let regressions = ref 0 in
  Printf.printf "%-14s %-20s %14s %14s %8s %8s %8s %7s  %s\n" "workload" "metric" "median A"
    "median B" "change" "spread A" "spread B" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          let va = values ra ~workload ~metric:m.name and vb = values rb ~workload ~metric:m.name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let bound = Option.value m.bound ~default:0.0 in
            let v = judge ~lower_is_better:m.lower_is_better ~bound va vb in
            if v = Regressed then incr regressions;
            let spread x = if Array.length x < 2 then nan else Timing.spread x in
            let ma = Timing.median va and mb = Timing.median vb in
            Printf.printf
              "%-14s %-20s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s (%d/%d runs)\n"
              workload m.name ma mb
              (100.0 *. (mb -. ma) /. Float.abs ma)
              (100.0 *. spread va) (100.0 *. spread vb) (100.0 *. bound) (verdict_name v)
              (Array.length va) (Array.length vb)
          end)
        spec.end_to_end)
    spec.workloads;
  !regressions
