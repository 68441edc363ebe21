type t = { send : Bitio.Bits.t -> unit; recv : unit -> Bitio.Bits.t }

let send tr payload = tr.send payload
let recv tr = tr.recv ()
let make ~send ~recv = { send; recv }
