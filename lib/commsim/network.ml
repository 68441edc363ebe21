open Effect
open Effect.Deep

type payload = Bitio.Bits.t

type _ Effect.t +=
  | Send_eff : int * payload -> unit Effect.t
  | Recv_eff : int -> payload Effect.t
  | Recv_any_eff : (int * payload) Effect.t

type status =
  | Runnable
  | Blocked of (payload, unit) continuation * int (* waiting for this sender *)
  | Blocked_any of (int * payload, unit) continuation
  | Finished

type player_state = {
  rank : int;
  size : int;
  inboxes : (payload * int) Queue.t array; (* (payload, depth), indexed by sender *)
  mutable clock : int;
  mutable status : status;
  mutable sent_bits : int;
  mutable received_bits : int;
  mutable sent_messages : int;
  mutable consumed_messages : int;
}

type endpoint = player_state

let rank ep = ep.rank
let size ep = ep.size

let send ep ~to_ payload =
  if to_ < 0 || to_ >= ep.size then invalid_arg "Network.send: rank out of range";
  if to_ = ep.rank then invalid_arg "Network.send: self-send";
  perform (Send_eff (to_, payload))

let recv ep ~from_ =
  if from_ < 0 || from_ >= ep.size then invalid_arg "Network.recv: rank out of range";
  if from_ = ep.rank then invalid_arg "Network.recv: self-recv";
  perform (Recv_eff from_)

let recv_any _ep = perform Recv_any_eff

exception Deadlock of string

type trace_entry = { from_ : int; to_ : int; bits : int; depth : int; span : int option }

type blocked = { rank : int; waiting_for : int option; consumed : int }
type drop_site = { drop_from : int; drop_to : int; drop_index : int }

type diagnosis = {
  blocked : blocked list;
  dropped : int;
  first_drop : drop_site option;
  detail : string;
}

type 'r outcome =
  | Completed of 'r
  | Lost of diagnosis
  | Crashed of { rank : int; exn : string; after_messages : int }

let run_with ~trace ~faults players =
  let m = Array.length players in
  if m < 2 then invalid_arg "Network.run: need at least two players";
  let states =
    Array.init m (fun rank ->
        {
          rank;
          size = m;
          inboxes = Array.init m (fun _ -> Queue.create ());
          clock = 0;
          status = Runnable;
          sent_bits = 0;
          received_bits = 0;
          sent_messages = 0;
          consumed_messages = 0;
        })
  in
  let results = Array.make m None in
  let runnable : (unit -> unit) Queue.t = Queue.create () in
  let rounds = ref 0 and total_bits = ref 0 and messages = ref 0 in
  (* Entries accumulate newest-first; the single [List.rev] at the return
     site below restores send order. *)
  let entries = ref [] in
  (* The ambient observability hooks.  They never touch the cost meters:
     with tracing disabled (the default collector) every call below is a
     no-op branch, and with it enabled only the sidecar event record grows,
     so [Cost.t] is bit-identical either way. *)
  let collector = Obsv.Trace.current () in
  let observing = Obsv.Trace.enabled collector in
  let channel =
    match faults with None -> None | Some plan -> Some (Faults.channel plan ~players:m)
  in
  let tallies =
    match channel with Some c -> Faults.tallies c | None -> Faults.create_tallies ~players:m
  in
  let link_index = Array.init m (fun _ -> Array.make m 0) in
  let crashes = ref [] in
  let first_drop = ref None in
  let consume st from_ =
    let payload, depth = Queue.pop st.inboxes.(from_) in
    st.clock <- max st.clock depth;
    st.received_bits <- st.received_bits + Bitio.Bits.length payload;
    st.consumed_messages <- st.consumed_messages + 1;
    payload
  in
  let first_nonempty_inbox st =
    let rec scan from_ =
      if from_ >= m then None
      else if not (Queue.is_empty st.inboxes.(from_)) then Some from_
      else scan (from_ + 1)
    in
    scan 0
  in
  (* Wake-ups can go stale (two sends queue two wakes but the first one lets
     the player move on), so a wake re-checks the condition before resuming. *)
  let try_resume st =
    match st.status with
    | Blocked (k, from_) when not (Queue.is_empty st.inboxes.(from_)) ->
        st.status <- Runnable;
        if observing then Obsv.Trace.set_rank collector (Some st.rank);
        continue k (consume st from_)
    | Blocked_any k -> begin
        match first_nonempty_inbox st with
        | Some from_ ->
            st.status <- Runnable;
            if observing then Obsv.Trace.set_rank collector (Some st.rank);
            continue k (from_, consume st from_)
        | None -> ()
      end
    | Blocked _ | Runnable | Finished -> ()
  in
  (* Cost meters every payload copy that actually crosses the wire: in a
     clean run that is exactly one per send; the channel ([faults]) can turn
     one send into zero (drop) or two (duplication) metered deliveries. *)
  let deliver st ~to_ payload =
    let depth = st.clock + 1 in
    let len = Bitio.Bits.length payload in
    rounds := max !rounds depth;
    total_bits := !total_bits + len;
    incr messages;
    (* [observe] self-gates on the ambient registry, so metrics work with or
       without tracing. *)
    Obsv.Metrics.observe "net/payload_bits" len;
    let span =
      if observing then Obsv.Trace.on_message collector ~from_:st.rank ~to_ ~bits:len ~depth
      else None
    in
    if trace then entries := { from_ = st.rank; to_; bits = len; depth; span } :: !entries;
    st.sent_bits <- st.sent_bits + len;
    st.sent_messages <- st.sent_messages + 1;
    let peer = states.(to_) in
    Queue.add (payload, depth) peer.inboxes.(st.rank);
    match peer.status with
    | Blocked (_, from_) when from_ = st.rank -> Queue.add (fun () -> try_resume peer) runnable
    | Blocked_any _ -> Queue.add (fun () -> try_resume peer) runnable
    | Blocked _ | Runnable | Finished -> ()
  in
  let start st rank () =
    if observing then Obsv.Trace.set_rank collector (Some rank);
    match_with (players.(rank)) st
      {
        retc =
          (fun r ->
            results.(rank) <- Some r;
            st.status <- Finished);
        exnc =
          (match faults with
          | None -> raise
          | Some _ ->
              fun e ->
                crashes := (st.rank, Printexc.to_string e, st.consumed_messages) :: !crashes;
                st.status <- Finished);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Send_eff (to_, payload) ->
                Some
                  (fun (k : (c, unit) continuation) ->
                    (match channel with
                    | None -> deliver st ~to_ payload
                    | Some c ->
                        let index = link_index.(st.rank).(to_) in
                        link_index.(st.rank).(to_) <- index + 1;
                        (match Faults.apply c ~from_:st.rank ~to_ ~index payload with
                        | Faults.Drop ->
                            if !first_drop = None then
                              first_drop :=
                                Some { drop_from = st.rank; drop_to = to_; drop_index = index }
                        | Faults.Deliver copies -> List.iter (deliver st ~to_) copies));
                    continue k ())
            | Recv_eff from_ ->
                Some
                  (fun (k : (c, unit) continuation) ->
                    if Queue.is_empty st.inboxes.(from_) then st.status <- Blocked (k, from_)
                    else continue k (consume st from_))
            | Recv_any_eff ->
                Some
                  (fun (k : (c, unit) continuation) ->
                    match first_nonempty_inbox st with
                    | Some from_ -> continue k (from_, consume st from_)
                    | None -> st.status <- Blocked_any k)
            | _ -> None);
      }
  in
  Array.iteri (fun rank st -> Queue.add (start st rank) runnable) states;
  let rec schedule () =
    match Queue.take_opt runnable with
    | Some thunk ->
        thunk ();
        schedule ()
    | None -> ()
  in
  if observing then
    Fun.protect ~finally:(fun () -> Obsv.Trace.set_rank collector None) schedule
  else schedule ();
  let outcome =
    match List.rev !crashes with
    | (rank, exn, after_messages) :: _ -> Crashed { rank; exn; after_messages }
    | [] -> begin
        let stuck =
          Array.to_list states
          |> List.filter_map (fun st ->
                 match st.status with
                 | Finished -> None
                 | Blocked (_, from_) ->
                     Some
                       { rank = st.rank; waiting_for = Some from_; consumed = st.consumed_messages }
                 | Blocked_any _ | Runnable ->
                     Some { rank = st.rank; waiting_for = None; consumed = st.consumed_messages })
        in
        match stuck with
        | [] ->
            Completed
              (Array.map
                 (function Some r -> r | None -> assert false (* Finished implies stored *))
                 results)
        | stuck when faults = None ->
            (* Clean executions keep the historical behaviour: a hang is a
               protocol bug and raises. *)
            let b = List.hd stuck in
            raise
              (Deadlock
                 (match b.waiting_for with
                 | Some from_ ->
                     Printf.sprintf
                       "player %d waits for a message from player %d that never comes" b.rank
                       from_
                 | None ->
                     Printf.sprintf "player %d waits for a message that never comes" b.rank))
        | stuck ->
            let dropped = (Faults.total tallies).Faults.dropped_messages in
            let describe b =
              match b.waiting_for with
              | Some from_ ->
                  let t = tallies.Faults.links.(from_).(b.rank) in
                  Printf.sprintf
                    "player %d waits for player %d after consuming %d message(s) (link %d->%d: \
                     %d sent, %d dropped, %d truncated)"
                    b.rank from_ b.consumed from_ b.rank
                    link_index.(from_).(b.rank)
                    t.Faults.dropped_messages t.Faults.truncated_messages
              | None ->
                  Printf.sprintf "player %d waits for a message from any player after consuming %d"
                    b.rank b.consumed
            in
            let first =
              match !first_drop with
              | None -> ""
              | Some d ->
                  Printf.sprintf "; first drop was message #%d on link %d->%d" d.drop_index
                    d.drop_from d.drop_to
            in
            let detail =
              Printf.sprintf "%s; channel dropped %d message(s) in total%s"
                (String.concat "; " (List.map describe stuck))
                dropped first
            in
            Lost { blocked = stuck; dropped; first_drop = !first_drop; detail }
      end
  in
  let players_cost =
    Array.map
      (fun st ->
        {
          Cost.sent_bits = st.sent_bits;
          received_bits = st.received_bits;
          sent_messages = st.sent_messages;
        })
      states
  in
  ( outcome,
    { Cost.players = players_cost; total_bits = !total_bits; messages = !messages; rounds = !rounds },
    List.rev !entries,
    tallies )

let completed_exn = function
  | Completed r -> r
  | Lost _ | Crashed _ -> assert false (* clean executions always complete or raise *)

let run players =
  let outcome, cost, _, _ = run_with ~trace:false ~faults:None players in
  (completed_exn outcome, cost)

let run_traced players =
  let outcome, cost, entries, _ = run_with ~trace:true ~faults:None players in
  (completed_exn outcome, cost, entries)

let run_faulty ~plan players =
  let outcome, cost, _, tallies = run_with ~trace:false ~faults:(Some plan) players in
  (outcome, cost, tallies)

let run_faulty_traced ~plan players =
  let outcome, cost, entries, tallies = run_with ~trace:true ~faults:(Some plan) players in
  (outcome, cost, entries, tallies)
