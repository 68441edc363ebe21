open Intersect

type result = {
  intersection : Iset.t;
  intersection_size : int;
  union_size : int;
  distinct : int;
  jaccard : float;
  hamming : int;
  rarity1 : float;
  rarity2 : float;
  cost : Commsim.Cost.t;
}

let default_protocol () = Verified.protocol (Tree_protocol.protocol_log_star ())

let exchange_sizes s t =
  Commsim.Two_party.run
    ~alice:(fun chan ->
      Obsv.Trace.span Obsv.Phases.App_similarity (fun () ->
          Commsim.Transport.send chan (Wire.gamma_msg (Array.length s)));
      Wire.read_gamma_msg (Commsim.Transport.recv chan))
    ~bob:(fun chan ->
      Obsv.Trace.span Obsv.Phases.App_similarity (fun () ->
          Commsim.Transport.send chan (Wire.gamma_msg (Array.length t)));
      Wire.read_gamma_msg (Commsim.Transport.recv chan))

let run ?protocol rng ~universe s t =
  let protocol = match protocol with Some p -> p | None -> default_protocol () in
  let outcome = protocol.Protocol.run rng ~universe s t in
  (* Size exchange: both messages are independent, one round. *)
  let (_t_size_at_alice, _s_size_at_bob), size_cost = exchange_sizes s t in
  let cost = Commsim.Cost.add_seq outcome.Protocol.cost size_cost in
  let intersection = outcome.Protocol.alice in
  let intersection_size = Iset.cardinal intersection in
  let union_size = Array.length s + Array.length t - intersection_size in
  let jaccard =
    if union_size = 0 then 1.0 else float_of_int intersection_size /. float_of_int union_size
  in
  let hamming = union_size - intersection_size in
  let rarity1 =
    if union_size = 0 then 0.0
    else float_of_int (union_size - intersection_size) /. float_of_int union_size
  in
  let rarity2 =
    if union_size = 0 then 0.0 else float_of_int intersection_size /. float_of_int union_size
  in
  {
    intersection;
    intersection_size;
    union_size;
    distinct = union_size;
    jaccard;
    hamming;
    rarity1;
    rarity2;
    cost;
  }
