open Effect
open Effect.Deep

type payload = Bitio.Bits.t

(* The scheduler's one effect: a player whose receive found its inbox
   empty suspends.  It carries nothing; what the player waits for is in
   its state ([awaiting]), and the inbox is read after it resumes. *)
type _ Effect.t += Recv_eff : unit Effect.t

exception Deadlock of string

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

(* One directed link's undelivered messages: a growable ring of payloads
   and their causal depths, [len] of them from [head]. *)
type inbox = {
  mutable payloads : payload array;
  mutable depths : int array;
  mutable head : int;
  mutable len : int;
}

type status =
  | Fresh (* queued to start *)
  | Runnable
  | Blocked of (unit, unit) continuation (* in a receive; see [awaiting] *)
  | Finished

type player_state = {
  rank : int;
  size : int;
  net : net;
  inboxes : inbox array; (* indexed by sender *)
  mutable clock : int;
  mutable status : status;
  mutable awaiting : int; (* the sender a blocked player waits on; -1 = any *)
  mutable sent_bits : int;
  mutable received_bits : int;
  mutable sent_messages : int;
  mutable consumed_messages : int;
}

(* One execution's shared state.  Only the scheduler switches players, so
   [current] is the player whose code is running (or last ran). *)
and net = {
  mutable states : player_state array;
  mutable current : int;
  (* The run queue: ranks to start or wake, a growable ring. *)
  mutable queue : int array;
  mutable queue_head : int;
  mutable queue_len : int;
  mutable rounds : int;
  mutable total_bits : int;
  mutable messages : int;
  (* The ambient observability hooks, and the one record of the messages.
     They never touch the cost meters: with tracing disabled (the default
     collector) every call is a no-op branch, and with it enabled only the
     collector's event record grows, so [Cost.t] is bit-identical either
     way. *)
  collector : Obsv.Trace.collector;
  observing : bool;
  channel : Faults.channel option;
  link_index : int array array; (* messages sent per directed link; faulty runs only *)
  mutable first_drop : drop_site option;
  mutable crash : (int * string * int) option; (* the first player to raise *)
}

type endpoint = player_state

let rank (ep : endpoint) = ep.rank
let size (ep : endpoint) = ep.size

let[@inline] wrap i cap = if i >= cap then i - cap else i

(* A ring's [len] entries from [head], moved to the front of a doubled
   array (at least [2] long) whose other cells hold [fill]. *)
let grown ring ~head ~len fill =
  let cap = Array.length ring in
  let next = Array.make (Int.max 2 (2 * cap)) fill in
  for i = 0 to len - 1 do
    next.(i) <- ring.(wrap (head + i) cap)
  done;
  next

let push_inbox ib payload depth =
  if ib.len = Array.length ib.payloads then begin
    ib.payloads <- grown ib.payloads ~head:ib.head ~len:ib.len Bitio.Bits.empty;
    ib.depths <- grown ib.depths ~head:ib.head ~len:ib.len 0;
    ib.head <- 0
  end;
  let j = wrap (ib.head + ib.len) (Array.length ib.payloads) in
  ib.payloads.(j) <- payload;
  ib.depths.(j) <- depth;
  ib.len <- ib.len + 1

let enqueue net rank =
  if net.queue_len = Array.length net.queue then begin
    net.queue <- grown net.queue ~head:net.queue_head ~len:net.queue_len 0;
    net.queue_head <- 0
  end;
  net.queue.(wrap (net.queue_head + net.queue_len) (Array.length net.queue)) <- rank;
  net.queue_len <- net.queue_len + 1

let dequeue net =
  let rank = net.queue.(net.queue_head) in
  net.queue_head <- wrap (net.queue_head + 1) (Array.length net.queue);
  net.queue_len <- net.queue_len - 1;
  rank

(* The inbox must be non-empty.  The slot is cleared so the ring keeps no
   payload alive once it is consumed. *)
let consume st from_ =
  let ib = st.inboxes.(from_) in
  let h = ib.head in
  let payload = ib.payloads.(h) in
  st.clock <- Int.max st.clock ib.depths.(h);
  ib.payloads.(h) <- Bitio.Bits.empty;
  ib.head <- wrap (h + 1) (Array.length ib.payloads);
  ib.len <- ib.len - 1;
  st.received_bits <- st.received_bits + Bitio.Bits.length payload;
  st.consumed_messages <- st.consumed_messages + 1;
  payload

(* The lowest sender from [from_] on with a message waiting, or -1. *)
let rec first_nonempty_inbox st from_ =
  if from_ >= st.size then -1
  else if st.inboxes.(from_).len > 0 then from_
  else first_nonempty_inbox st (from_ + 1)

(* Cost meters every payload copy that actually crosses the wire: in a
   clean run that is exactly one per send; the channel can turn one send
   into zero (drop) or two (duplication) metered deliveries.  A send never
   blocks, so delivery is a direct call on the sender's side: the
   recipient only learns of it through the run queue, and only if it is
   blocked on this sender (or on any). *)
let deliver st ~to_ payload =
  let net = st.net in
  let depth = st.clock + 1 in
  let len = Bitio.Bits.length payload in
  net.rounds <- Int.max net.rounds depth;
  net.total_bits <- net.total_bits + len;
  net.messages <- net.messages + 1;
  (* [observe] self-gates on the ambient registry, so metrics work with or
     without tracing. *)
  Obsv.Metrics.observe "net/payload_bits" len;
  if net.observing then Obsv.Trace.on_message net.collector ~from_:st.rank ~to_ ~bits:len ~depth;
  st.sent_bits <- st.sent_bits + len;
  st.sent_messages <- st.sent_messages + 1;
  let peer = net.states.(to_) in
  push_inbox peer.inboxes.(st.rank) payload depth;
  match peer.status with
  | Blocked _ when peer.awaiting = st.rank || peer.awaiting < 0 -> enqueue net to_
  | Fresh | Runnable | Blocked _ | Finished -> ()

let send ep ~to_ payload =
  if to_ < 0 || to_ >= ep.size then invalid_arg "Network.send: rank out of range";
  if to_ = ep.rank then invalid_arg "Network.send: self-send";
  let net = ep.net in
  match net.channel with
  | None -> deliver ep ~to_ payload
  | Some c ->
      let index = net.link_index.(ep.rank).(to_) in
      net.link_index.(ep.rank).(to_) <- index + 1;
      let copies = Faults.apply c ~from_:ep.rank ~to_ ~index payload in
      if copies = 0 then begin
        if net.first_drop = None then
          net.first_drop <- Some { drop_from = ep.rank; drop_to = to_; drop_index = index }
      end
      else begin
        let payload = Faults.delivered c in
        deliver ep ~to_ payload;
        if copies = 2 then deliver ep ~to_ payload
      end

let recv ep ~from_ =
  if from_ < 0 || from_ >= ep.size then invalid_arg "Network.recv: rank out of range";
  if from_ = ep.rank then invalid_arg "Network.recv: self-recv";
  if ep.inboxes.(from_).len = 0 then begin
    ep.awaiting <- from_;
    perform Recv_eff
  end;
  consume ep from_

let recv_any ep =
  let from_ = first_nonempty_inbox ep 0 in
  let from_ =
    if from_ >= 0 then from_
    else begin
      ep.awaiting <- -1;
      perform Recv_eff;
      first_nonempty_inbox ep 0
    end
  in
  (from_, consume ep from_)

(* Wake-ups can go stale (two sends queue two wakes but the first one lets
   the player move on), so a wake re-checks the condition before resuming. *)
let ready st =
  if st.awaiting >= 0 then st.inboxes.(st.awaiting).len > 0 else first_nonempty_inbox st 0 >= 0

let switch_to net st =
  net.current <- st.rank;
  if net.observing then Obsv.Trace.set_rank net.collector (Some st.rank)

let schedule net players handler =
  while net.queue_len > 0 do
    let st = net.states.(dequeue net) in
    match st.status with
    | Fresh ->
        st.status <- Runnable;
        switch_to net st;
        match_with players.(st.rank) st handler
    | Blocked k when ready st ->
        st.status <- Runnable;
        switch_to net st;
        continue k ()
    | Blocked _ | Runnable | Finished -> ()
  done

(* Once a run's outcome and cost are fixed, each player still blocked in a
   receive unwinds, freeing its fiber; whatever else it raises is dropped. *)
let abandon net =
  for i = 0 to Array.length net.states - 1 do
    let st = net.states.(i) in
    match st.status with
    | Blocked k -> (
        st.status <- Finished;
        switch_to net st;
        match discontinue k Obsv.Trace.Abandoned with () | (exception _) -> ())
    | Fresh | Runnable | Finished -> ()
  done;
  if net.observing then Obsv.Trace.set_rank net.collector None

let new_inbox _ = { payloads = [||]; depths = [||]; head = 0; len = 0 }

let run_with ~faults players =
  let m = Array.length players in
  if m < 2 then invalid_arg "Network.run: need at least two players";
  let collector = Obsv.Trace.current () in
  let channel =
    match faults with None -> None | Some plan -> Some (Faults.channel plan ~players:m)
  in
  let net =
    {
      states = [||];
      current = 0;
      queue = Array.init m Fun.id;
      queue_head = 0;
      queue_len = m;
      rounds = 0;
      total_bits = 0;
      messages = 0;
      collector;
      observing = Obsv.Trace.enabled collector;
      channel;
      link_index = (match channel with None -> [||] | Some _ -> Array.make_matrix m m 0);
      first_drop = None;
      crash = None;
    }
  in
  net.states <-
    Array.init m (fun rank ->
        {
          rank;
          size = m;
          net;
          inboxes = Array.init m new_inbox;
          clock = 0;
          status = Fresh;
          awaiting = -1;
          sent_bits = 0;
          received_bits = 0;
          sent_messages = 0;
          consumed_messages = 0;
        });
  let results = Array.make m None in
  (* One handler for every player: the running player is [net.current]. *)
  let block = Some (fun k -> net.states.(net.current).status <- Blocked k) in
  let handler =
    {
      retc =
        (fun r ->
          let st = net.states.(net.current) in
          results.(st.rank) <- Some r;
          st.status <- Finished);
      exnc =
        (match faults with
        | None -> raise
        | Some _ -> (
            function
            | Obsv.Trace.Abandoned -> ()
            | e ->
                let st = net.states.(net.current) in
                if net.crash = None then
                  net.crash <- Some (st.rank, Printexc.to_string e, st.consumed_messages);
                st.status <- Finished));
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Recv_eff -> (block : ((c, unit) continuation -> unit) option)
          | _ -> None);
    }
  in
  (match schedule net players handler with
  | () -> ()
  | exception e ->
      abandon net;
      raise e);
  let states = net.states in
  let outcome =
    match net.crash with
    | Some (rank, exn, after_messages) -> Crashed { rank; exn; after_messages }
    | None when Array.for_all (fun st -> match st.status with Finished -> true | _ -> false) states
      ->
        Completed
          (Array.map
             (function Some r -> r | None -> assert false (* Finished implies stored *))
             results)
    | None -> begin
        let stuck =
          Array.to_list states
          |> List.filter_map (fun st ->
                 match st.status with
                 | Finished -> None
                 | Blocked _ when st.awaiting >= 0 ->
                     Some
                       {
                         rank = st.rank;
                         waiting_for = Some st.awaiting;
                         consumed = st.consumed_messages;
                       }
                 | Blocked _ | Fresh | Runnable ->
                     Some { rank = st.rank; waiting_for = None; consumed = st.consumed_messages })
        in
        match channel with
        | None ->
            (* Clean executions keep the historical behaviour: a hang is a
               protocol bug and raises. *)
            let b = List.hd stuck in
            abandon net;
            raise
              (Deadlock
                 (match b.waiting_for with
                 | Some from_ ->
                     Printf.sprintf
                       "player %d waits for a message from player %d that never comes" b.rank
                       from_
                 | None ->
                     Printf.sprintf "player %d waits for a message that never comes" b.rank))
        | Some c ->
            let tallies = Faults.tallies c in
            let dropped = (Faults.total tallies).Faults.dropped_messages in
            let describe b =
              match b.waiting_for with
              | Some from_ ->
                  let t = tallies.Faults.links.(from_).(b.rank) in
                  Printf.sprintf
                    "player %d waits for player %d after consuming %d message(s) (link %d->%d: \
                     %d sent, %d dropped, %d truncated)"
                    b.rank from_ b.consumed from_ b.rank
                    net.link_index.(from_).(b.rank)
                    t.Faults.dropped_messages t.Faults.truncated_messages
              | None ->
                  Printf.sprintf "player %d waits for a message from any player after consuming %d"
                    b.rank b.consumed
            in
            let first =
              match net.first_drop with
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
            Lost { blocked = stuck; dropped; first_drop = net.first_drop; detail }
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
  let cost =
    { Cost.players = players_cost; total_bits = net.total_bits; messages = net.messages;
      rounds = net.rounds }
  in
  abandon net;
  (outcome, cost, net)

let completed_exn = function
  | Completed r -> r
  | Lost _ | Crashed _ -> assert false (* clean executions always complete or raise *)

let run players =
  let outcome, cost, _ = run_with ~faults:None players in
  (completed_exn outcome, cost)

let run_faulty ~plan players =
  let outcome, cost, net = run_with ~faults:(Some plan) players in
  let tallies =
    match net.channel with Some c -> Faults.tallies c | None -> assert false (* faulty run *)
  in
  (outcome, cost, tallies)
