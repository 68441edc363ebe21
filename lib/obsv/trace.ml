type attr = string * string

type span = {
  id : int;
  phase : Phases.t;
  mutable attrs : attr list;
  rank : int option;
  parent : int option;
  start_seq : int;
  mutable end_seq : int;
  mutable bits : int;
  mutable messages : int;
}

type message = {
  seq : int;
  from_ : int;
  to_ : int;
  bits : int;
  depth : int;
  span : int option;
}

type collector = {
  enabled : bool;
  mutable next_seq : int;
  mutable next_span_id : int;
  mutable spans_rev : span list;
  mutable messages_rev : message list;
  mutable ambient : span list;
  stacks : (int, span list) Hashtbl.t;
  mutable current_rank : int option;
}

let make ~enabled =
  {
    enabled;
    next_seq = 0;
    next_span_id = 1;
    spans_rev = [];
    messages_rev = [];
    ambient = [];
    stacks = Hashtbl.create 8;
    current_rank = None;
  }

(* The shared no-op collector: the ambient default, so instrumented code pays
   one load + one branch when nobody is tracing. *)
let disabled = make ~enabled:false
let create () = make ~enabled:true
let enabled c = c.enabled

(* Domain-local, so trial engines can run one collector per domain without
   racing: a freshly spawned domain starts at [disabled]. *)
let ambient_collector = Domain.DLS.new_key (fun () -> disabled)

let current () = Domain.DLS.get ambient_collector

let with_collector c f =
  let prev = Domain.DLS.get ambient_collector in
  Domain.DLS.set ambient_collector c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_collector prev) f

let next_seq c =
  let s = c.next_seq in
  c.next_seq <- s + 1;
  s

let stack_of c rank = match Hashtbl.find_opt c.stacks rank with Some s -> s | None -> []
let top = function [] -> None | sp :: _ -> Some sp

(* The innermost open span of player [rank]; a player with no open span of
   its own inherits the orchestrator's (ambient) innermost span, so e.g. a
   retry wrapper's attempt span catches messages of uninstrumented code. *)
let innermost c ~rank =
  match top (stack_of c rank) with Some sp -> Some sp | None -> top c.ambient

(* The innermost span of the code running now: the parent of a span it
   opens, and the span an attribute it sets lands on. *)
let current_span c =
  match c.current_rank with None -> top c.ambient | Some rank -> innermost c ~rank

exception Abandoned

let set_rank c rank = if c.enabled then c.current_rank <- rank

let span phase f =
  let c = Domain.DLS.get ambient_collector in
  if not c.enabled then f ()
  else begin
    let rank = c.current_rank in
    let parent = current_span c in
    let sp =
      {
        id = c.next_span_id;
        phase;
        attrs = [];
        rank;
        parent = Option.map (fun p -> p.id) parent;
        start_seq = next_seq c;
        end_seq = -1;
        bits = 0;
        messages = 0;
      }
    in
    c.next_span_id <- sp.id + 1;
    c.spans_rev <- sp :: c.spans_rev;
    (match rank with
    | None -> c.ambient <- sp :: c.ambient
    | Some r -> Hashtbl.replace c.stacks r (sp :: stack_of c r));
    let close () =
      sp.end_seq <- next_seq c;
      match rank with
      | None -> ( match c.ambient with s :: rest when s == sp -> c.ambient <- rest | _ -> ())
      | Some r -> (
          match stack_of c r with
          | s :: rest when s == sp -> Hashtbl.replace c.stacks r rest
          | _ -> ())
    in
    match f () with
    | v -> close (); v
    | exception Abandoned -> raise Abandoned
    | exception e -> close (); raise e
  end

let add_attr c key value =
  match current_span c with Some s -> s.attrs <- s.attrs @ [ (key, value) ] | None -> ()

let attr key value =
  let c = Domain.DLS.get ambient_collector in
  if c.enabled then add_attr c key (string_of_int value)

let attr_string key value =
  let c = Domain.DLS.get ambient_collector in
  if c.enabled then add_attr c key value

let on_message c ~from_ ~to_ ~bits ~depth =
  if c.enabled then begin
    let sp = innermost c ~rank:from_ in
    (match sp with
    | Some s ->
        s.bits <- s.bits + bits;
        s.messages <- s.messages + 1
    | None -> ());
    let span = Option.map (fun (s : span) -> s.id) sp in
    c.messages_rev <- { seq = next_seq c; from_; to_; bits; depth; span } :: c.messages_rev
  end

let spans c = List.rev c.spans_rev
let messages c = List.rev c.messages_rev
let final_seq c = c.next_seq
