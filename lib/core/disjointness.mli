(** Set-disjointness baselines ([DISJ^n_k]) — the problem whose lower bound
    [R(DISJ) = Ω(k)] makes the paper's [O(k)]-bit intersection protocols
    optimal.

    Two upper bounds are provided:

    - {!via_intersection}: the reduction [DISJ <= INT] — run any
      intersection protocol and report emptiness.
    - {!hw}: a density-parametrized variant of the Håstad–Wigderson
      protocol.  Shared randomness defines a stream of random sets
      [Z_1, Z_2, ...]; the active party sends the index of the first [Z_j]
      containing its current set, and the peer prunes its own set to
      [Z_j].  Intersection elements survive every pruning (one-sided:
      "intersecting" answers can be wrong only by early termination,
      "disjoint" answers are certain).  The original protocol draws each
      [Z] with density 1/2, making the index search cost [2^|S|] time — the
      classic exponential-time/linear-communication trade-off; we expose
      [bits_per_message] [B], drawing densities [2^(-B/|current set|)] so
      the search stays polynomial while preserving the
      communication/round trade-off envelope (larger [B] = fewer, fatter
      messages). *)

type outcome = {
  disjoint : bool;  (** agreed verdict *)
  cost : Commsim.Cost.t;
}

(** [hw ?bits_per_message rng ~universe s t].  Error is one-sided:
    [disjoint = true] is always correct; [disjoint = false] is wrong with
    probability vanishing in the round cap. *)
val hw :
  ?bits_per_message:int ->
  Prng.Rng.t ->
  universe:int ->
  Iset.t ->
  Iset.t ->
  outcome

(** Decide disjointness by running any intersection protocol and testing
    the candidates for emptiness (the reduction of Corollary 3.2). *)
val via_intersection :
  Protocol.t -> Prng.Rng.t -> universe:int -> Iset.t -> Iset.t -> outcome
