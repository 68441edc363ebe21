(** The main protocol (Theorem 1.1 / Theorem 3.6): for any [r >= 1], set
    intersection in [O(r)] rounds with expected communication
    [O(k log^(r) k)] and success probability [1 - 1/poly(k)].

    Implementation follows Algorithm 1.  A shared hash drops elements into
    [k] buckets (the tree leaves).  The protocol then runs [r] stages; stage
    [i] runs one equality test per node of level [L_i] of the verification
    tree ({!Vtree}), with per-stage error [1 / (log^(r-i-1) k)^4], and
    re-runs {!Basic_intersection} (with the same per-stage error target) on
    every leaf below a failed node.  All tests and re-runs of a stage are
    batched into four messages, so the whole protocol takes at most [4r]
    messages — within the paper's [6r] budget.

    The outputs are the unions of each party's final leaf assignments; they
    satisfy the candidate-sandwich contract of {!Protocol}, and equal
    [S ∩ T] on both sides except with probability [O(1/k^3)]. *)

(** [run_party role rng ~universe ~r ~k chan mine] is the message-level
    runner ([`Alice] talks first); exposed for embedding in multi-party
    executions.

    Ablation knobs (defaults reproduce the paper):
    [buckets] overrides the number of leaves (paper: [k]);
    [flat_eq_bits] replaces the per-stage equality budget
    [4 log (log^(r-i-1) k)] with one fixed width;
    [budget] (total bits, counted identically by both sides) arms the
    paper's worst-case conversion ("terminating the protocol if it
    consumes more than a constant factor times its expected communication
    cost"): when a stage would start beyond the budget, both parties
    abandon the tree and fall back to the deterministic exchange over the
    same channel, bounding the worst case at [O(k log(n/k))]. *)
val run_party :
  ?buckets:int ->
  ?flat_eq_bits:int ->
  ?budget:int ->
  [ `Alice | `Bob ] ->
  Prng.Rng.t ->
  universe:int ->
  r:int ->
  k:int ->
  Commsim.Transport.t ->
  Iset.t ->
  Iset.t

(** [protocol ~r ()] runs with [k = max (|S|, |T|, 1)] (the promise
    parameter is taken from the actual inputs) unless [k] is forced. *)
val protocol : ?buckets:int -> ?flat_eq_bits:int -> ?k:int -> r:int -> unit -> Protocol.t

(** Convenience: [r = log* k], the optimal-communication configuration. *)
val protocol_log_star : ?k:int -> unit -> Protocol.t

(** Test-only bindings: the pieces of {!run_party}'s stage loop that the
    tests check against references.  They are the functions the runner
    calls, not another way to run the protocol.

    Leaf layout, as in the runner: [idx] groups indices into the sorted
    [mine] by leaf, leaf [u] owning [idx.(start.(u)) .. idx.(start.(u) +
    live.(u) - 1)] in increasing order. *)
module For_testing : sig
  (** [encode_leaves buf ~leaves ~off mine idx start live] resets [buf]
      and gap-codes every leaf in order, each as
      [Bitio.Set_codec.write_gaps] codes its set, recording leaf [u]'s
      first bit in [off.(u)] and the end in [off.(leaves)]. *)
  val encode_leaves :
    Bitio.Bitbuf.t ->
    leaves:int ->
    off:int array ->
    int array ->
    int array ->
    int array ->
    int array ->
    unit

  (** [patch_leaves dst src ~leaves ~off ~changed ~nchanged mine idx start
      live], where [src] and [off] are what {!encode_leaves} produced
      and only the leaves [changed.(0) .. changed.(nchanged - 1)]
      (strictly ascending) have changed since, leaves in [dst] and [off]
      exactly what {!encode_leaves} would: changed leaves are re-coded,
      the runs between them copied from [src]. *)
  val patch_leaves :
    Bitio.Bitbuf.t ->
    Bitio.Bits.t ->
    leaves:int ->
    off:int array ->
    changed:int array ->
    nchanged:int ->
    int array ->
    int array ->
    int array ->
    int array ->
    unit

  (** [node_label cell ~stage vi], called for [vi = 0, 1, 2, ...] in
      order with nothing else touching [cell] in between, leaves [cell]'s
      label at ["tree/eq/s<stage>/v<vi>"]. *)
  val node_label : Prng.Rng.Label.d -> stage:int -> int -> unit
end
