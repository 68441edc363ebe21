(** Deterministic per-trial randomness for the parallel trial engine.

    A stream is a [(base seed, stream label)] pair; the generator of trial
    [i] is derived from those and [i] {e only} — by a single
    {!Prng.Splitmix64.mix} of the root seed with the FNV-hashed label
    ["<label>/trial<i>"] (the {!Prng.Rng.with_label} derivation).  No state
    is shared between trials, so trial [i] sees the same stream whether it
    runs first or last, on one domain or sixteen — this is what makes every
    engine result independent of scheduling.

    The derivation is intentionally identical to the hand-rolled seeding
    the soak harness used before the engine existed
    ([Rng.with_label (Rng.of_int seed) "soak/<proto>/<plan>/trial<i>"]),
    so historical soak JSON reproduces bit for bit. *)

type t

(** [create ~base ~label] names a stream.  [label] conventionally encodes
    the experiment coordinates (["soak/tree/flip-1e-3"],
    ["conform/bucket/k64"], ...). *)
val create : base:int -> label:string -> t

(** The generator of trial [i], derived from the label
    ["<label>/trial<i>"]; a pure function of [(base, label, i)]. *)
val trial_rng : t -> int -> Prng.Rng.t
