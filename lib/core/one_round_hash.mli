(** The one-round randomized protocol ([R^(1)(INT_k) = O(k log k)]).

    Each party sends [O(log k)]-bit shared-randomness tags of its elements;
    the other side keeps the elements whose tag it saw.  One message each
    way, sent before either party reads — causally independent, so the
    whole protocol is a single simultaneous round.

    With [C = confidence] the per-pair false-positive probability is
    [k^-C]; outputs are sandwich candidates that equal [S ∩ T] with
    probability [1 - O(k^(2-C))]. *)

(** One party's side: send the tags of [mine] (sized for sets of at most
    [k]), then keep the elements whose tag the peer sent.  Both parties run
    this body with generators in identical states and the same [k] and
    [confidence] (default 4). *)
val run_party :
  ?confidence:int -> Prng.Rng.t -> k:int -> Commsim.Transport.t -> Iset.t -> Iset.t

val protocol : ?confidence:int -> unit -> Protocol.t

(** Tag width used for sets of size at most [k]. *)
val tag_bits : k:int -> confidence:int -> int
