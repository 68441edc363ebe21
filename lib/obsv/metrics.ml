type registry = {
  enabled : bool;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  sketches : (string, Sketch.t) Hashtbl.t;
}

let make ~enabled =
  {
    enabled;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    sketches = Hashtbl.create 16;
  }

let disabled = make ~enabled:false
let create () = make ~enabled:true
let enabled r = r.enabled

(* Domain-local, so a parallel trial engine can give every domain (or every
   trial) its own registry without racing: a freshly spawned domain starts
   at [disabled]. *)
let ambient_registry = Domain.DLS.new_key (fun () -> disabled)

let current () = Domain.DLS.get ambient_registry

let with_registry r f =
  let prev = Domain.DLS.get ambient_registry in
  Domain.DLS.set ambient_registry r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_registry prev) f

let find tbl name create_v =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = create_v () in
      Hashtbl.replace tbl name v;
      v

let incr ?(by = 1) name =
  let r = Domain.DLS.get ambient_registry in
  if r.enabled then
    let c = find r.counters name (fun () -> ref 0) in
    c := !c + by

let set_gauge name v =
  let r = Domain.DLS.get ambient_registry in
  if r.enabled then
    let g = find r.gauges name (fun () -> ref 0) in
    g := v

let observe name v =
  let r = Domain.DLS.get ambient_registry in
  if r.enabled then Sketch.observe (find r.sketches name Sketch.create) v

let merge_sketch name src =
  let r = Domain.DLS.get ambient_registry in
  if r.enabled then Sketch.merge_into ~into:(find r.sketches name Sketch.create) src

(* Order-free merge: counters and sketches add, gauges keep the maximum.
   "Latest value" is meaningless across independent parallel trials, so the
   gauge rule is chosen to be commutative; with addition everywhere else the
   merge is associative and commutative, which is what lets a trial engine
   combine per-worker registries in any grouping and still produce one
   deterministic registry. *)
let merge_into ~into src =
  if not into.enabled then invalid_arg "Metrics.merge_into: destination disabled";
  Hashtbl.iter
    (fun name c ->
      let dst = find into.counters name (fun () -> ref 0) in
      dst := !dst + !c)
    src.counters;
  Hashtbl.iter
    (fun name g ->
      let dst = find into.gauges name (fun () -> ref min_int) in
      dst := max !dst !g)
    src.gauges;
  Hashtbl.iter
    (fun name s ->
      let dst = find into.sketches name Sketch.create in
      Sketch.merge_into ~into:dst s)
    src.sketches

let counter_value r name =
  match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0

let gauge_value r name = match Hashtbl.find_opt r.gauges name with Some g -> Some !g | None -> None
let sketch_of r name = Hashtbl.find_opt r.sketches name

let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let counters_list r = List.map (fun k -> (k, !(Hashtbl.find r.counters k))) (sorted_keys r.counters)
let gauges_list r = List.map (fun k -> (k, !(Hashtbl.find r.gauges k))) (sorted_keys r.gauges)

let sketches_list r = List.map (fun k -> (k, Hashtbl.find r.sketches k)) (sorted_keys r.sketches)

let to_json r =
  let obj json l = Stats.Json.Obj (List.map (fun (k, v) -> (k, json v)) l) in
  let int v = Stats.Json.Int v in
  Stats.Json.Obj
    [
      ("counters", obj int (counters_list r));
      ("gauges", obj int (gauges_list r));
      ("sketches", obj Sketch.to_json (sketches_list r));
    ]
