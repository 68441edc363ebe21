(* Observability tax: the bucket protocol timed with the span collector +
   metrics registry enabled vs the shared disabled instances.  Writes
   BENCH_trace_overhead.json so the ratio is tracked across revisions.
   (The experiment tables in Tables measure communication; this measures
   time, through Obsv.Window.) *)

open Intersect

let seed = 987654321

let make_pair ~universe ~k ~overlap =
  Workload.Setgen.pair_with_overlap (Prng.Rng.of_int seed) ~universe ~size_s:k ~size_t:k ~overlap

let trace_overhead ?(out = "BENCH_trace_overhead.json") () =
  let universe = 1 lsl 30 in
  let time_one ~k ~traced =
    let pair = make_pair ~universe ~k ~overlap:(k / 2) in
    let protocol = Bucket_protocol.protocol ~k () in
    let run i =
      let body () =
        let outcome =
          protocol.Protocol.run
            (Prng.Rng.with_label (Prng.Rng.of_int (seed + i)) "micro/overhead")
            ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
        in
        ignore (Iset.cardinal outcome.Protocol.alice)
      in
      if traced then
        Obsv.Trace.with_collector (Obsv.Trace.create ())
          (fun () -> Obsv.Metrics.with_registry (Obsv.Metrics.create ()) body)
      else body ()
    in
    let reps = if k <= 128 then 60 else 12 in
    for i = 0 to 4 do
      run i
    done;
    let (), w =
      Obsv.Window.measure (fun () ->
          for i = 0 to reps - 1 do
            run i
          done)
    in
    float_of_int w.ns /. float_of_int reps
  in
  let cases =
    List.map
      (fun k ->
        let off = time_one ~k ~traced:false in
        let on_ = time_one ~k ~traced:true in
        (k, off, on_, on_ /. off))
      [ 64; 1024 ]
  in
  let table =
    Stats.Table.create ~title:"Trace overhead (bucket protocol)"
      ~columns:[ "k"; "disabled ns/run"; "enabled ns/run"; "ratio" ]
  in
  List.iter
    (fun (k, off, on_, ratio) ->
      Stats.Table.add_row table
        [
          string_of_int k;
          Stats.Table.cell_float off;
          Stats.Table.cell_float on_;
          Stats.Table.cell_float ~decimals:3 ratio;
        ])
    cases;
  Stats.Table.print table;
  let json =
    Stats.Json.Obj
      [
        ("bench", Stats.Json.Str "trace_overhead");
        ("protocol", Stats.Json.Str "bucket");
        ("seed", Stats.Json.Int seed);
        ( "cases",
          Stats.Json.List
            (List.map
               (fun (k, off, on_, ratio) ->
                 Stats.Json.Obj
                   [
                     ("k", Stats.Json.Int k);
                     ("disabled_ns_per_run", Stats.Json.Float off);
                     ("enabled_ns_per_run", Stats.Json.Float on_);
                     ("overhead_ratio", Stats.Json.Float ratio);
                   ])
               cases) );
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Stats.Json.to_string_pretty json);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n" out
