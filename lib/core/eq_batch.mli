(** Amortized batch equality: [k] independent instances of EQ solved with
    [O(k)] expected total communication — the role played by the
    Feder–Kushilevitz–Naor–Nisan protocol (Theorem 3.2) in the paper's
    [O(√k)]-round intersection protocol (Theorem 3.1).

    Reconstruction (the original FKNN construction is described only at
    guarantee level in the paper): instances are split into [⌈√k⌉] groups,
    processed sequentially (the sequentiality the paper attributes to
    FKNN).  Within a group, iteration [t] exchanges doubling-width
    ([2·2^t]-bit, capped) tags of the undecided instances; mismatching
    instances are settled as unequal with certainty.  An iteration with no
    mismatches triggers a [⌈√k⌉ + O(log k)]-bit joint test of everything
    still undecided; if it passes, the remainder is declared equal.  After
    an (astronomically unlikely) iteration cap, the remaining strings are
    exchanged verbatim, so termination is unconditional.

    Guarantees:
    - "unequal" verdicts are always correct (one-sided);
    - all verdicts are correct except with probability [2^(-Ω(√k))];
    - expected total communication [O(k + Σ min(|x_i|, ...))]... [O(k)]
      bits for the tag traffic plus [O(√k)] joint tests of [O(√k)] bits;
    - expected rounds [O(√k · log log k)] sequential
      ([O(log k)] with [~sequential:false], an ablation knob the paper's
      framing forbids but modern pipelining allows). *)

(** Where each instance lies in a packed table: one {!Bitio.Bits.t}
    holding every instance's input back to back. *)
type layout =
  | Uniform of { count : int; width : int }
      (** [count] instances, instance [i] at bits
          [\[i * width, (i + 1) * width)] *)
  | Ranges of int array
      (** [Ranges off]: [Array.length off - 1] instances, instance [i] at
          bits [\[off.(i), off.(i + 1))]; [off] must not decrease *)

(** [run_table role rng chan table layout] is one party's side of a batch
    over the instances [layout] places in [table].  Both parties must
    pass equally many instances and generators in identical states (each
    its own table).  Returns one verdict byte per instance, ['\001'] for
    declared equal and ['\000'] otherwise.  A party's tags are drawn over
    its ranges in place, and in the exact round Bob compares Alice's
    strings with his ranges as he reads them, so the table is never cut
    into per-instance values.  [max_iterations] (default 40, same value
    on both sides) caps the tag rounds before the verbatim-exchange
    fallback; tests set it to 0 to drive the fallback directly.  Raises
    [Invalid_argument] if a range lies outside [table]. *)
val run_table :
  ?sequential:bool ->
  ?max_iterations:int ->
  [ `Alice | `Bob ] ->
  Prng.Rng.t ->
  Commsim.Transport.t ->
  Bitio.Bits.t ->
  layout ->
  Bytes.t

(** [run_alice rng chan xs] / [run_bob rng chan ys]: {!run_table} over
    the instances packed back to back, with the verdicts unpacked
    ([true] = declared equal).  Same transcript as {!run_table} on the
    same inputs. *)
val run_alice :
  ?sequential:bool ->
  ?max_iterations:int ->
  Prng.Rng.t ->
  Commsim.Transport.t ->
  Bitio.Bits.t array ->
  bool array

(** Bob's side of {!run_alice}; same options and generator contract. *)
val run_bob :
  ?sequential:bool ->
  ?max_iterations:int ->
  Prng.Rng.t ->
  Commsim.Transport.t ->
  Bitio.Bits.t array ->
  bool array

(** Joint-test tag width used for [k] instances (exposed for tests). *)
val joint_bits : k:int -> int
