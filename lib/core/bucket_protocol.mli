(** The [O(√k)]-round, [O(k)]-bit protocol of Theorem 3.1.

    Pipeline: (1) a shared hash [H : \[n\] -> \[N\]], [N = k^3], shrinks
    elements to [3 log k]-bit fingerprints (skipped when the universe is
    already that small); (2) a shared hash [h : \[N\] -> \[k\]] splits both
    sets into [k] buckets; (3) the parties exchange all bucket counts
    ([O(k)] bits, Elias-coded); (4) every cross pair within a bucket becomes
    one instance of Equality on [3 log k]-bit strings — [6k] instances in
    expectation (equation (1) of the paper) — solved by the amortized batch
    equality protocol {!Eq_batch}; (5) a pair that tests equal puts the
    corresponding original elements into the candidate intersections.

    If the instance count explodes (bad bucket luck), both parties agree
    from the public counts to redraw [h]; this adds [O(k)] bits per retry
    and happens with vanishing probability.

    Outputs satisfy the candidate-sandwich contract; both equal [S ∩ T]
    except with probability [O(1/k) + 2^-Ω(√k)]. *)

(** One party's side of the protocol over [chan]. *)
val run_party :
  [ `Alice | `Bob ] ->
  Prng.Rng.t ->
  universe:int ->
  k:int ->
  Commsim.Transport.t ->
  Iset.t ->
  Iset.t

(** Protocol record over {!run_party}; [k] (default: the larger input's
    size) sizes the bucket table. *)
val protocol : ?k:int -> unit -> Protocol.t
