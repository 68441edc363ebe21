(** Corollary 4.2: multi-party set intersection optimized for {e worst-case}
    communication per player.

    Within each group the players sit at the leaves of a binary tournament:
    adjacent survivors run the two-party protocol pairwise and the winner
    carries the pairwise intersection up, so no single player talks to
    [2^k - 1] peers the way a star coordinator does — the per-player load is
    bounded by the tournament depth [k] times the pairwise cost,
    [O(k² log^(r) k · max(1, log m / k))] in the paper's accounting.

    The top pair certifies its result with a [k]-bit equality check; on
    failure the whole group tournament re-runs with fresh randomness
    ([O(1)] expected repetitions).  The verdict travels back down the
    tournament edges as a binomial broadcast.  Group winners recurse as in
    {!Star}. *)

val run :
  ?r:int ->
  ?max_attempts:int ->
  ?broadcast:bool ->
  Prng.Rng.t ->
  universe:int ->
  k:int ->
  Iset.t array ->
  Iset.t * Commsim.Cost.t

(** Test references and instruments. *)
module For_testing : sig
  (** Like {!run} with [~broadcast:true], returning every player's output. *)
  val run_all :
    ?r:int ->
    ?max_attempts:int ->
    Prng.Rng.t ->
    universe:int ->
    k:int ->
    Iset.t array ->
    Iset.t array * Commsim.Cost.t
end
