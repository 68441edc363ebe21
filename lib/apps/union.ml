open Intersect

type result = {
  union : Iset.t;
  intersection : Iset.t;
  symmetric_difference : Iset.t;
  cost : Commsim.Cost.t;
}

let run _rng ~universe s t =
  Protocol.validate_inputs ~universe s t;
  let alice chan =
    Obsv.Trace.span Obsv.Phases.App_union (fun () -> Commsim.Transport.send chan (Wire.of_set s));
    let reader = Bitio.Bitreader.create (Commsim.Transport.recv chan) in
    let t_minus_s = Bitio.Set_codec.read_gaps reader in
    let s_minus_t_flags = Array.map (fun _ -> Bitio.Bitreader.read_bit reader) s in
    let s_minus_t =
      Array.to_list s |> List.filteri (fun i _ -> s_minus_t_flags.(i)) |> Array.of_list
    in
    ( Iset.union s t_minus_s,
      Iset.diff s s_minus_t,
      Iset.union s_minus_t t_minus_s )
  in
  let bob chan =
    let received = Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (Commsim.Transport.recv chan)) in
    let t_minus_s = Iset.diff t received in
    let buf = Bitio.Bitbuf.create () in
    Bitio.Set_codec.write_gaps buf t_minus_s;
    (* bitmap over Alice's elements, in her sorted order: 1 = not in T *)
    Array.iter (fun x -> Bitio.Bitbuf.write_bit buf (not (Iset.mem t x))) received;
    Obsv.Trace.span Obsv.Phases.App_union (fun () ->
        Commsim.Transport.send chan (Bitio.Bitbuf.contents buf));
    ( Iset.union received t_minus_s,
      Iset.inter received t,
      Iset.union (Iset.diff received t) t_minus_s )
  in
  let ((u_a, i_a, d_a), (u_b, i_b, d_b)), cost = Commsim.Two_party.run ~alice ~bob in
  assert (Iset.equal u_a u_b && Iset.equal i_a i_b && Iset.equal d_a d_b);
  { union = u_a; intersection = i_a; symmetric_difference = d_a; cost }
