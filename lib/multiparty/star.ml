open Intersect

let run_internal ?r ?(max_attempts = 30) ~broadcast rng ~universe ~k sets =
  if k < 1 then invalid_arg "Star.run: k";
  Array.iter (fun set -> Protocol.validate_inputs ~universe set set) sets;
  let m = Array.length sets in
  if m = 0 then invalid_arg "Star.run: no players";
  if m = 1 then ([| sets.(0) |], Commsim.Cost.zero ~players:1)
  else begin
    let r = match r with Some r -> max 1 r | None -> max 1 (Iterated_log.log_star k) in
    let bits = max 16 (2 * k) in
    let group_size = Group.size ~k in
    let pair_party holding role attempt_rng chan =
      Tree_protocol.run_party role attempt_rng ~universe ~r ~k chan holding
    in
    let player rank mine ep =
      let holding = ref mine in
      let active = ref (List.init m Fun.id) in
      let level = ref 0 in
      let still_active = ref true in
      while !still_active && List.length !active > 1 do
        let groups = Group.chunk !active ~size:group_size in
        let my_group = List.find (fun group -> List.mem rank group) groups in
        (match my_group with
        | [] -> assert false
        | coordinator :: members ->
            let pair_rng member =
              Prng.Rng.with_label rng (Printf.sprintf "star/l%d/pair%d" !level member)
            in
            if rank = coordinator then
              Obsv.Trace.span Obsv.Phases.Star_coordinate (fun () ->
                  Obsv.Trace.attr "level" !level;
                  let sessions =
                    List.map
                      (fun member ->
                        ( member,
                          fun chan ->
                            (Verified.run_party `Bob (pair_rng member) ~bits ~max_attempts chan
                               ~party:(pair_party !holding `Bob))
                              .Verified.candidate ))
                      members
                  in
                  let results = Commsim.Multiplex.run ep sessions in
                  holding := List.fold_left Iset.inter !holding results)
            else
              Obsv.Trace.span Obsv.Phases.Star_pair (fun () ->
                  Obsv.Trace.attr "level" !level;
                  let chan = Commsim.Chan.of_endpoint ep ~peer:coordinator in
                  let candidate =
                    (Verified.run_party `Alice (pair_rng rank) ~bits ~max_attempts chan
                       ~party:(pair_party !holding `Alice))
                      .Verified.candidate
                  in
                  holding := candidate;
                  still_active := false));
        active := List.map List.hd groups;
        incr level
      done;
      if broadcast then Broadcast.run ep !holding else !holding
    in
    Commsim.Network.run (Array.init m (fun rank -> player rank sets.(rank)))
  end

let run ?r ?max_attempts rng ~universe ~k sets =
  let results, cost = run_internal ?r ?max_attempts ~broadcast:false rng ~universe ~k sets in
  (results.(0), cost)

module For_testing = struct
  let run_all ?r ?max_attempts rng ~universe ~k sets =
    run_internal ?r ?max_attempts ~broadcast:true rng ~universe ~k sets
end
