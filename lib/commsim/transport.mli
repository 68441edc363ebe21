(** The transport abstraction all party code is written against.

    A transport value is a bidirectional byte-stream to one fixed peer:
    [send] ships one framed payload, [recv] blocks until the peer's next
    payload arrives.  Protocol implementations consume only this record, so
    the same party function runs unchanged over the in-process coroutine
    simulator ({!Chan}, the one implementation) or — eventually — a real
    socket: a new backend only has to produce a [t].

    This module deliberately depends on nothing but {!Bitio}: the simulator
    ({!Network}) plugs in from the outside, not the other way around. *)

type t = { send : Bitio.Bits.t -> unit; recv : unit -> Bitio.Bits.t }

(** [send tr payload] ships one payload to the peer. *)
val send : t -> Bitio.Bits.t -> unit

(** [recv tr] blocks until the peer's next payload arrives. *)
val recv : t -> Bitio.Bits.t

(** Build a transport from its two operations. *)
val make : send:(Bitio.Bits.t -> unit) -> recv:(unit -> Bitio.Bits.t) -> t
