(* Outside-in layer probes.  Nothing here reaches into the library: every
   number comes from timing calls into public functions.

   Two-party executions run over wrapped transports.  The simulator only
   switches parties inside a blocking [recv] ([send] delivers and resumes
   the sender at once), so at every instant exactly one of these holds:
   Alice runs her own code, Bob runs his, a party is inside [send], or the
   scheduler is switching between them.  The wrapper clocks the first three
   directly; switch time is what is left of the execution's wall time, and
   it can only come out negative if the clock runs backwards. *)

open Timing

type party = {
  mutable self_ns : int;  (* party code between its transport calls *)
  mutable send_ns : int;
  mutable wait_ns : int;  (* inside [recv], including the peer's turn *)
  mutable messages : int;
  mutable mark : int;  (* end of the party's last transport call *)
}

type t = {
  alice : party;
  bob : party;
  mutable executions : int;
  mutable wall_ns : int;  (* summed over two-party executions *)
  mutable switch_ns : int;
  mutable negative_switch : int;  (* executions with a negative residual *)
  slots : Vec.t array;  (* per-workload sub-step durations, see [time] *)
}

let new_party () = { self_ns = 0; send_ns = 0; wait_ns = 0; messages = 0; mark = 0 }

let create ~slots =
  {
    alice = new_party ();
    bob = new_party ();
    executions = 0;
    wall_ns = 0;
    switch_ns = 0;
    negative_switch = 0;
    slots = Array.init slots (fun _ -> Vec.create ());
  }

let wrap p (tr : Commsim.Transport.t) =
  Commsim.Transport.make
    ~send:(fun payload ->
      let t0 = now () in
      p.self_ns <- p.self_ns + (t0 - p.mark);
      Commsim.Transport.send tr payload;
      let t1 = now () in
      p.send_ns <- p.send_ns + (t1 - t0);
      p.messages <- p.messages + 1;
      p.mark <- t1)
    ~recv:(fun () ->
      let t0 = now () in
      p.self_ns <- p.self_ns + (t0 - p.mark);
      let payload = Commsim.Transport.recv tr in
      let t1 = now () in
      p.wait_ns <- p.wait_ns + (t1 - t0);
      p.mark <- t1;
      payload)

let party p body chan =
  p.mark <- now ();
  let result = body (wrap p chan) in
  p.self_ns <- p.self_ns + (now () - p.mark);
  result

(* [Commsim.Two_party.run] with both parties' transports wrapped. *)
let two_party t ~alice ~bob =
  let attributed () = t.alice.self_ns + t.bob.self_ns + t.alice.send_ns + t.bob.send_ns in
  let before = attributed () in
  let t0 = now () in
  let result = Commsim.Two_party.run ~alice:(party t.alice alice) ~bob:(party t.bob bob) in
  let wall = now () - t0 in
  let switch = wall - (attributed () - before) in
  t.executions <- t.executions + 1;
  t.wall_ns <- t.wall_ns + wall;
  t.switch_ns <- t.switch_ns + switch;
  if switch < 0 then t.negative_switch <- t.negative_switch + 1;
  result

(* [time t ~slot f] runs [f], appending its duration to slot [slot]. *)
let time t ~slot f =
  let t0 = now () in
  let result = f () in
  Vec.push t.slots.(slot) (now () - t0);
  result

let slot_p50 t slot = median (Vec.to_floats t.slots.(slot))
let messages t = t.alice.messages + t.bob.messages
let send_ns t = t.alice.send_ns + t.bob.send_ns
let wait_ns t = t.alice.wait_ns + t.bob.wait_ns
