open Intersect

let depth_of g =
  let rec loop d = if 1 lsl d >= g then d else loop (d + 1) in
  loop 0

let run_internal ?r ?(max_attempts = 30) ~broadcast rng ~universe ~k sets =
  if k < 1 then invalid_arg "Tournament.run: k";
  Array.iter (fun set -> Protocol.validate_inputs ~universe set set) sets;
  let m = Array.length sets in
  if m = 0 then invalid_arg "Tournament.run: no players";
  if m = 1 then ([| sets.(0) |], Commsim.Cost.zero ~players:1)
  else begin
    let r = match r with Some r -> max 1 r | None -> max 1 (Iterated_log.log_star k) in
    let check_bits = max 16 k in
    let group_size = Group.size ~k in
    let player rank mine ep =
      let holding = ref mine in
      let active = ref (List.init m Fun.id) in
      let level = ref 0 in
      let still_active = ref true in
      while !still_active && List.length !active > 1 do
        let groups = Group.chunk !active ~size:group_size in
        let my_group = List.find (fun group -> List.mem rank group) groups in
        let group = Array.of_list my_group in
        let g = Array.length group in
        let my_pos = ref 0 in
        Array.iteri (fun pos member -> if member = rank then my_pos := pos) group;
        let my_pos = !my_pos in
        let depth = depth_of g in
        let chan_to pos = Commsim.Chan.of_endpoint ep ~peer:group.(pos) in
        (* One full tournament pass; returns the root verdict. *)
        let run_attempt attempt =
          Obsv.Trace.span Obsv.Phases.tour_pass
            ~attrs:[ ("level", string_of_int !level); ("attempt", string_of_int attempt) ]
          @@ fun () ->
          let candidate = ref !holding in
          for t = 1 to depth do
            let stride = 1 lsl t in
            let half = stride / 2 in
            let pair_rng low_pos =
              Prng.Rng.with_label rng
                (Printf.sprintf "tour/a%d/l%d/t%d/low%d" attempt !level t group.(low_pos))
            in
            if my_pos mod stride = 0 && my_pos + half < g then
              candidate :=
                Tree_protocol.run_party `Alice (pair_rng my_pos) ~universe ~r ~k
                  (chan_to (my_pos + half))
                  !candidate
            else if my_pos mod stride = half then
              candidate :=
                Tree_protocol.run_party `Bob
                  (pair_rng (my_pos - half))
                  ~universe ~r ~k
                  (chan_to (my_pos - half))
                  !candidate
          done;
          (* Root certification (k-bit equality between the two finalists),
             then a binomial broadcast of the verdict from position 0. *)
          let verdict = ref true in
          if g >= 2 then begin
            let root_partner = 1 lsl (depth - 1) in
            let eq_rng =
              Prng.Rng.with_label rng
                (Printf.sprintf "tour/a%d/l%d/root%d" attempt !level group.(0))
            in
            Obsv.Trace.span Obsv.Phases.tour_root_check (fun () ->
                if my_pos = 0 then
                  verdict :=
                    Equality.run_alice_set eq_rng ~bits:check_bits (chan_to root_partner) !candidate
                else if my_pos = root_partner then
                  verdict := Equality.run_bob_set eq_rng ~bits:check_bits (chan_to 0) !candidate);
            Obsv.Trace.span Obsv.Phases.tour_verdict (fun () ->
                for t = depth downto 1 do
                  let half = 1 lsl (t - 1) in
                  if my_pos mod (1 lsl t) = 0 && my_pos + half < g then
                    Commsim.Transport.send (chan_to (my_pos + half)) (Wire.bit_msg !verdict)
                  else if my_pos mod (1 lsl t) = half then
                    verdict := Wire.read_bit_msg (Commsim.Transport.recv (chan_to (my_pos - half)))
                done)
          end;
          (!candidate, !verdict)
        in
        let rec attempt_loop attempt =
          let candidate, verdict = run_attempt attempt in
          if verdict || attempt >= max_attempts then candidate else attempt_loop (attempt + 1)
        in
        holding := attempt_loop 1;
        if my_pos <> 0 then still_active := false;
        active := List.map List.hd groups;
        incr level
      done;
      if broadcast then Broadcast.run ep !holding else !holding
    in
    Commsim.Network.run (Array.init m (fun rank -> player rank sets.(rank)))
  end

let run ?r ?max_attempts ?(broadcast = false) rng ~universe ~k sets =
  let results, cost = run_internal ?r ?max_attempts ~broadcast rng ~universe ~k sets in
  (results.(0), cost)

module For_testing = struct
  let run_all ?r ?max_attempts rng ~universe ~k sets =
    run_internal ?r ?max_attempts ~broadcast:true rng ~universe ~k sets
end
