(* Point-in-time copies of a metrics registry, taken on an event-time
   axis (sessions completed, trials run — never a wall clock) and diffed
   into a JSONL time series with derived rates.  All arithmetic is
   integer, so the stream is byte-identical for a fixed seed at any
   domain count. *)

type sketch_summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_p50 : int;
  s_p90 : int;
  s_p99 : int;
  s_p999 : int;
}

type t = {
  seq : int;
  at : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  sketches : (string * sketch_summary) list;
}

let summarize_sketch s =
  {
    s_count = Sketch.count s;
    s_sum = Sketch.sum s;
    s_min = (match Sketch.min_value s with Some v -> v | None -> 0);
    s_max = (match Sketch.max_value s with Some v -> v | None -> 0);
    s_p50 = Sketch.p50 s;
    s_p90 = Sketch.p90 s;
    s_p99 = Sketch.p99 s;
    s_p999 = Sketch.p999 s;
  }

let take ~seq ~at registry =
  Trace.span Phases.telemetry_snapshot (fun () ->
      {
        seq;
        at;
        counters = Metrics.counters_list registry;
        gauges = Metrics.gauges_list registry;
        sketches = List.map (fun (k, s) -> (k, summarize_sketch s)) (Metrics.sketches_list registry);
      })

let counter t name = match List.assoc_opt name t.counters with Some v -> v | None -> 0
let gauge t name = List.assoc_opt name t.gauges
let sketch t name = List.assoc_opt name t.sketches

let sketch_json s =
  Stats.Json.Obj
    [
      ("count", Stats.Json.Int s.s_count);
      ("sum", Stats.Json.Int s.s_sum);
      ("min", Stats.Json.Int s.s_min);
      ("max", Stats.Json.Int s.s_max);
      ("p50", Stats.Json.Int s.s_p50);
      ("p90", Stats.Json.Int s.s_p90);
      ("p99", Stats.Json.Int s.s_p99);
      ("p999", Stats.Json.Int s.s_p999);
    ]

let to_json t =
  Stats.Json.Obj
    [
      ("event", Stats.Json.Str "snapshot");
      ("seq", Stats.Json.Int t.seq);
      ("at", Stats.Json.Int t.at);
      ("counters", Stats.Json.Obj (List.map (fun (k, v) -> (k, Stats.Json.Int v)) t.counters));
      ("gauges", Stats.Json.Obj (List.map (fun (k, v) -> (k, Stats.Json.Int v)) t.gauges));
      ("sketches", Stats.Json.Obj (List.map (fun (k, s) -> (k, sketch_json s)) t.sketches));
    ]

(* Derived rates between two snapshots: integer deltas of every counter,
   plus a per-1000-event-time-units rate (delta * 1000 / dt, floor
   division — deterministic, no floats).  Counters absent from [prev]
   delta from zero; unchanged counters are omitted to keep lines lean. *)
let rates_json ~prev t =
  let dt = t.at - prev.at in
  let entries =
    List.filter_map
      (fun (name, v) ->
        let d = v - counter prev name in
        if d = 0 then None
        else
          let per_1000 = if dt > 0 then d * 1000 / dt else 0 in
          Some
            ( name,
              Stats.Json.Obj
                [ ("delta", Stats.Json.Int d); ("per_1000", Stats.Json.Int per_1000) ] ))
      t.counters
  in
  Stats.Json.Obj
    [
      ("event", Stats.Json.Str "rates");
      ("seq", Stats.Json.Int t.seq);
      ("at", Stats.Json.Int t.at);
      ("dt", Stats.Json.Int dt);
      ("counters", Stats.Json.Obj entries);
    ]
