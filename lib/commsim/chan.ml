type t = Transport.t = { send : Bitio.Bits.t -> unit; recv : unit -> Bitio.Bits.t }

let of_endpoint ep ~peer =
  {
    Transport.send = (fun payload -> Network.send ep ~to_:peer payload);
    recv = (fun () -> Network.recv ep ~from_:peer);
  }
