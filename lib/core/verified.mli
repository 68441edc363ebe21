(** Success amplification by verify-and-repeat (Section 4, first paragraph).

    Given a base protocol satisfying the candidate-sandwich contract
    ({!Protocol}), run it, then spend [bits] extra bits on an equality test
    of the two candidate outputs.  If they agree, they are exactly [S ∩ T]
    (Corollary 3.4 / Proposition 3.9), so a passed check is wrong only when
    the equality test itself fails: error [<= attempts * 2^-bits ≈ 2^-k]
    with the paper's [bits = k].  On a failed check the base protocol is
    re-run with fresh randomness — [O(1)] expected repetitions.

    The verification phase runs strictly after the base protocol, so costs
    compose sequentially ({!Commsim.Cost.add_seq}). *)

type result = {
  outcome : Protocol.outcome;
  attempts : int;  (** base-protocol executions (>= 1) *)
  verified : bool;  (** the final equality check passed *)
}

(** [run base ~bits ~max_attempts rng ~universe s t].  Raises
    [Invalid_argument] when [base] does not declare the sandwich
    contract. *)
val run :
  Protocol.t ->
  bits:int ->
  max_attempts:int ->
  Prng.Rng.t ->
  universe:int ->
  Iset.t ->
  Iset.t ->
  result

(** Wrap as a protocol: {!run} with [bits = max 16 k] and
    [max_attempts = 20]. *)
val protocol : Protocol.t -> Protocol.t

(** What one side of {!run_party} learned: the candidate it ended on, how
    many base executions it took, and whether the final equality check
    passed.  When [verified] is [false] the candidate is best-effort only
    (the attempt budget ran out) — callers must not treat it as the exact
    intersection. *)
type party_result = { candidate : Iset.t; attempts : int; verified : bool }

(** Message-level verify-and-repeat over an existing channel, for embedding
    in multi-party executions.  [party] must produce a sandwich candidate
    and be deterministic given its generator; it is re-invoked with
    generators labelled ["attempt<i>"] until the [bits]-bit equality check
    of the two candidates passes or attempts run out (distinguished by the
    [verified] field of the result).  Both sides must use identical
    generator states, the same [bits] and the same [max_attempts]. *)
val run_party :
  [ `Alice | `Bob ] ->
  Prng.Rng.t ->
  bits:int ->
  max_attempts:int ->
  Commsim.Transport.t ->
  party:(Prng.Rng.t -> Commsim.Transport.t -> Iset.t) ->
  party_result
