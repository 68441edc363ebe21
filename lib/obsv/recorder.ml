(* A bounded ring-buffer flight recorder, ambient like Trace/Metrics so
   the session machine can record ladder events without threading a
   handle through every call.  The default is the shared disabled
   recorder: when flight recording is off, [event] costs one DLS load
   and one branch and allocates nothing. *)

type ev = { seq : int; kind : string; detail : string; attrs : (string * string) list }

let none = { seq = 0; kind = ""; detail = ""; attrs = [] }

type t = {
  enabled : bool;
  capacity : int;
  buf : ev array;
  mutable total : int;  (* events ever offered; buf keeps the last [capacity] *)
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  { enabled = true; capacity; buf = Array.make capacity none; total = 0 }

let disabled = { enabled = false; capacity = 0; buf = [||]; total = 0 }

let ambient_recorder = Domain.DLS.new_key (fun () -> disabled)
let active () = (Domain.DLS.get ambient_recorder).enabled

let with_recorder r f =
  let prev = Domain.DLS.get ambient_recorder in
  Domain.DLS.set ambient_recorder r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_recorder prev) f

(* The one write entry point — lint rule R6 restricts its callers to
   lib/session and lib/obsv.  Overwrites the oldest slot once full: the
   memory bound is [capacity] events regardless of session length. *)
let event ?(attrs = []) ~kind detail =
  let r = Domain.DLS.get ambient_recorder in
  if r.enabled then begin
    let seq = r.total in
    r.buf.(seq mod r.capacity) <- { seq; kind; detail; attrs };
    r.total <- r.total + 1
  end

let recorded r = r.total
let retained r = min r.total r.capacity
let dropped r = max 0 (r.total - r.capacity)
let capacity r = r.capacity

(* Chronological view of the surviving window (oldest first). *)
let events r =
  let n = retained r in
  List.init n (fun i -> r.buf.((r.total - n + i) mod r.capacity))

let ev_json e =
  let base =
    [
      ("seq", Stats.Json.Int e.seq);
      ("kind", Stats.Json.Str e.kind);
      ("detail", Stats.Json.Str e.detail);
    ]
  in
  let attrs =
    if e.attrs = [] then []
    else [ ("attrs", Stats.Json.Obj (List.map (fun (k, v) -> (k, Stats.Json.Str v)) e.attrs)) ]
  in
  Stats.Json.Obj (base @ attrs)

(* The dump is assembled only when a caller decides the session's ending
   deserves one (non-exact outcome) — recording itself never formats. *)
let post_mortem_json ?outcome r =
  let outcome_field =
    match outcome with None -> [] | Some o -> [ ("outcome", Stats.Json.Str o) ]
  in
  Stats.Json.Obj
    (("event", Stats.Json.Str "post-mortem")
     :: outcome_field
    @ [
        ("recorded", Stats.Json.Int (recorded r));
        ("dropped", Stats.Json.Int (dropped r));
        ("capacity", Stats.Json.Int (capacity r));
        ("events", Stats.Json.List (List.map ev_json (events r)));
      ])
