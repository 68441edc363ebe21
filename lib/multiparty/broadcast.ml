let run ep set =
  let m = Commsim.Network.size ep in
  let rank = Commsim.Network.rank ep in
  let depth =
    let rec loop d = if 1 lsl d >= m then d else loop (d + 1) in
    loop 0
  in
  Obsv.Trace.span Obsv.Phases.Multiparty_broadcast (fun () ->
      let holding = ref set in
      for t = depth downto 1 do
        let stride = 1 lsl t in
        let half = stride / 2 in
        if rank mod stride = 0 && rank + half < m then begin
          let buf = Bitio.Bitbuf.create () in
          Bitio.Set_codec.write_gaps buf !holding;
          Commsim.Network.send ep ~to_:(rank + half) (Bitio.Bitbuf.contents buf)
        end
        else if rank mod stride = half then begin
          let payload = Commsim.Network.recv ep ~from_:(rank - half) in
          holding := Bitio.Set_codec.read_gaps (Bitio.Bitreader.create payload)
        end
      done;
      !holding)
