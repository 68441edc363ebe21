(** Corollary 4.1: multi-party set intersection in the message-passing
    model, optimized for {e average} communication per player.

    Players are split into groups ({!Group}); every group member runs the
    verified two-party protocol (Theorem 1.1 amplified to error [2^-k] by a
    [2k]-bit equality check, repeated on failure) with its coordinator, who
    intersects the results; coordinators recurse.  The coordinator drives
    all member conversations concurrently ({!Commsim.Multiplex}), so a
    level costs [O(r)] expected rounds and the whole protocol
    [O(r · max(1, log m / k))] — with expected average communication
    [O(k log^(r) k)] per player, dominated by the first level.

    The global intersection ends at player 0 (lowest-rank coordinator). *)

(** [run rng ~universe ~k sets] returns player 0's final set and the
    execution cost.  [r] defaults to [log* k] (optimal communication);
    [max_attempts] bounds the verify-and-repeat loop per pair. *)
val run :
  ?r:int ->
  ?max_attempts:int ->
  Prng.Rng.t ->
  universe:int ->
  k:int ->
  Iset.t array ->
  Iset.t * Commsim.Cost.t

(** Test references and instruments. *)
module For_testing : sig
  (** Like {!run}, then every player learns the result ({!Broadcast}, at
      [m - 1] extra set transmissions); returns every player's output. *)
  val run_all :
    ?r:int ->
    ?max_attempts:int ->
    Prng.Rng.t ->
    universe:int ->
    k:int ->
    Iset.t array ->
    Iset.t array * Commsim.Cost.t
end
