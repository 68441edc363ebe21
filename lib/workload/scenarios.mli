(** Named, realistic workload builders shared by the examples, tests and
    the experiment harness: documents as shingle sets, keyed tables for
    joins, and element streams for sliding-window rarity. *)

(** [shingles ~w ~universe_bits text] hashes the [w]-word shingles of
    [text] into a [2^universe_bits] universe (FNV-1a folding; both parties
    apply the same public embedding, so equal shingles collide on
    purpose). *)
val shingles : w:int -> universe_bits:int -> string -> Iset.t
