(** Verify-and-repeat over an adversarial channel — {!Verified} generalized
    to executions where the channel itself, not just the protocol's
    randomness, can fail ({!Commsim.Faults}).

    Corruption is more dangerous than protocol randomness: a damaged
    payload breaks the candidate-sandwich contract, after which "the
    candidates agree" no longer implies "the candidates are [S ∩ T]" (both
    parties can agree on an intersection computed against a corrupted
    input).  So every attempt runs over a {e guarded} transport ({!guard}):
    each payload is framed with a sequence number and a [tag_bits]-bit
    shared-randomness fingerprint.  Bit flips and truncations are detected
    as fingerprint mismatches, desynchronizing drops as sequence gaps —
    both abort the attempt via {!Corrupted} — and duplicates are discarded
    by sequence number.  An intact attempt is therefore semantically a
    clean execution, and the final [check_bits]-bit equality test of the
    two candidates regains its Section-4 meaning.

    An attempt can end four ways: both sides accept (done), the equality
    check rejects (the base protocol's own randomness failed), the
    conversation wedges on a dropped message ({!Commsim.Network.Lost}), or
    a party aborts on detected corruption / a codec error
    ({!Commsim.Network.Crashed}).  Every non-accepting outcome triggers a
    retry with fresh randomness; a {e rejected check} additionally doubles
    the verification width — backoff in bits, not time: consecutive
    rejections buy exponentially more confidence, so agreement that fooled
    one check is caught by the next with overwhelming probability.
    Detected damage retries at the same width (it carries no evidence
    against the current fingerprints), and transport tags stay at a fixed
    32 bits — growing them would make every retry a fatter flip target
    than the attempt that just failed.

    When the attempt/bit budget is exhausted the wrapper degrades to the
    deterministic trivial exchange over a reliable transport (modelling a
    retransmitting fallback link at {!Trivial} cost), so the returned set
    is {e always} exactly [S ∩ T] unless an accepted fingerprint collided —
    probability [<= attempts * 2^-check_bits], the same [2^-k]-style bound
    the paper's Section 4 amplification pays. *)

(** One side of a base protocol, runnable over any channel.  Must produce a
    sandwich candidate ({!Protocol}) and be deterministic given its
    generator; both sides derive per-attempt randomness from the same
    labels, so a retry re-synchronizes the parties from scratch. *)
type party = Prng.Rng.t -> universe:int -> Iset.t -> Commsim.Transport.t -> Iset.t

(** A named pair of parties the resilient wrapper can retry. *)
type base = { name : string; alice : party; bob : party }

(** The deterministic exchange ({!Trivial.protocol}) as a base. *)
val trivial_base : base

(** The tree protocol ({!Tree_protocol.run_party}); [r] defaults to
    [log* k].  Raises [Invalid_argument] if [k < 1]. *)
val tree_base : ?r:int -> k:int -> unit -> base

(** The bucket protocol ({!Bucket_protocol.run_party}).  Raises
    [Invalid_argument] if [k < 1]. *)
val bucket_base : k:int -> unit -> base

(** The names {!base_of_name} knows: ["trivial"], ["tree"], ["bucket"]. *)
val base_names : string list

(** The base of that name ([tree] at [r = log* k]); [Invalid_argument]
    on an unknown name. *)
val base_of_name : string -> k:int -> base

(** Retry limits: at most [attempts] base executions, and no new attempt
    once [bits] total bits (over the faulty channel) have been spent. *)
type budget = { attempts : int; bits : int }

(** [{ attempts = 10; bits = max_int }]. *)
val default_budget : budget

(** Raised (inside a party) by a guarded channel on detected damage:
    fingerprint mismatch, truncated frame, or sequence gap.  Surfaces as
    {!Commsim.Network.Crashed} and triggers a retry. *)
exception Corrupted of string

(** [guard rng ~tag_bits chan] wraps [chan] in the resilient framing
    described above.  Both parties must call it with generators in
    identical states (the fingerprint function is drawn from shared
    randomness) and the same [tag_bits], which must lie in [\[1, 62\]]
    (raises [Invalid_argument] otherwise).  Adds [20 + tag_bits] bits per
    message; undetected corruption probability is [~2^-tag_bits] per
    message.  The fingerprint covers [seq | payload] and is computed in
    place on both sides ({!Strhash.prefixed_int_tag}), so a message
    costs one frame copy on send and, once its frame is accepted, one
    payload copy on receive.  The receiving side is total on adversarial
    input: any frame it cannot accept — too short for its header, a
    fingerprint mismatch, a sequence gap — raises {!Corrupted}, never a
    codec exception. *)
val guard : Prng.Rng.t -> tag_bits:int -> Commsim.Transport.t -> Commsim.Transport.t

(** Why one attempt failed. *)
type failure =
  | Check_rejected  (** the equality check said the candidates differ *)
  | Channel_lost of string  (** wedged on dropped messages (diagnosis) *)
  | Party_crashed of string  (** a party raised on a corrupted payload *)

(** One row of the attempt log: the attempt's 1-based index, the check
    width it ran at, the bits it burned over the faulty channel, and how it
    ended ([None] = both sides accepted). *)
type attempt_info = { index : int; width : int; bits : int; failure : failure option }

type report = {
  result : Iset.t;
  verified : bool;  (** an equality check accepted the result *)
  degraded : bool;  (** budget exhausted; result from the trivial fallback *)
  attempts : int;  (** base executions, including aborted ones *)
  failures : failure list;  (** chronological; length [attempts - 1] or [attempts] *)
  attempt_log : attempt_info list;
      (** chronological, one row per attempt; the rows' [bits] sum to
          [faulty_bits], and every row but a final successful one carries
          [Some failure] — this is what the session layer and the chaos
          harness aggregate wasted-bits and recovery-latency stats from *)
  check_bits_final : int;  (** fingerprint width of the last check *)
  faulty_bits : int;  (** bits metered over the adversarial channel *)
  fallback_bits : int;  (** bits of the reliable fallback (0 unless degraded) *)
  cost : Commsim.Cost.t;  (** aggregate over all attempts and the fallback *)
  tallies : Commsim.Faults.tallies;  (** total injected damage observed *)
}

(** [attempt_once base ~plan ~check_bits ~attempt rng ~universe s t]: one
    guarded execution of [base] followed by one [check_bits]-bit equality
    check, as a reusable primitive.  [rng] must already be the per-attempt
    generator (base/check/transport labels are derived from it on both
    sides) and [plan] must already be salted for this attempt; [attempt] is
    only a trace-span attribute.  Returns the accepted candidate or the
    {!failure} that ended the attempt, plus the attempt's cost and fault
    tallies.  A rejected check additionally carries Alice's {e unverified}
    candidate — the session layer checkpoints it as a best-effort partial
    result; it must never be reported as exact.  {!run} and the session
    ladder ([Session.Machine]) are both built on this, so a session attempt
    is bit-for-bit the execution a resilient retry would have performed. *)
val attempt_once :
  base ->
  plan:Commsim.Faults.plan ->
  check_bits:int ->
  attempt:int ->
  Prng.Rng.t ->
  universe:int ->
  Iset.t ->
  Iset.t ->
  (Iset.t, failure * Iset.t option) result * Commsim.Cost.t * Commsim.Faults.tallies

(** [run base ~plan ?budget ?check_bits rng ~universe s t].  [check_bits]
    (default [max 24 k], with [k] the larger input size) is the initial
    fingerprint width; it doubles after every failed attempt, capped at
    512.  Reproducible: the report is a pure function of
    [(base, plan, budget, check_bits, rng root, universe, s, t)]. *)
val run :
  base ->
  plan:Commsim.Faults.plan ->
  ?budget:budget ->
  ?check_bits:int ->
  Prng.Rng.t ->
  universe:int ->
  Iset.t ->
  Iset.t ->
  report

(** Count the attempt-level failures of a report by kind:
    [(rejected, lost, crashed)]. *)
val failure_counts : report -> int * int * int
