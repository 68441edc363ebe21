(** Workload generators: pairs (and families) of sets with controlled size,
    overlap and skew.  All sets are sorted arrays of distinct elements of
    [\[0, universe)]. *)

type pair = { s : int array; t : int array }

(** [random_set rng ~universe ~size] draws a uniform [size]-subset.
    Requires [size <= universe]. *)
val random_set : Prng.Rng.t -> universe:int -> size:int -> int array

(** [pair_with_overlap rng ~universe ~size_s ~size_t ~overlap] draws [S] and
    [T] with [|S| = size_s], [|T| = size_t] and [|S ∩ T| = overlap]
    exactly.  Requires [overlap <= min size_s size_t] and
    [size_s + size_t - overlap <= universe]. *)
val pair_with_overlap :
  Prng.Rng.t -> universe:int -> size_s:int -> size_t:int -> overlap:int -> pair

(** [zipf_pair rng ~universe ~size ~exponent] draws both sets by sampling
    (without replacement) from a Zipf([exponent]) distribution over the
    universe, the shape of element popularity in text / database workloads;
    overlap emerges naturally from the shared head of the distribution. *)
val zipf_pair : Prng.Rng.t -> universe:int -> size:int -> exponent:float -> pair

(** [family_with_core rng ~universe ~players ~size ~core] draws [players]
    sets of [size] elements sharing a common core of [core] elements (the
    multi-party intersection is exactly that core whenever the private parts
    are disjoint from it, which the generator enforces). *)
val family_with_core :
  Prng.Rng.t -> universe:int -> players:int -> size:int -> core:int -> int array array

(** A named corner-case input with the universe it lives in. *)
type shape = { shape : string; universe : int; pair : pair }

(** Ground-truth helpers on sorted arrays. *)
val intersect : int array -> int array -> int array

(** Test references and instruments. *)
module For_testing : sig
  (** [adversarial rng ~k] ([k >= 2]) draws the catalogue of shapes
      protocols historically get wrong: ["empty-both"], ["empty-s"],
      ["empty-t"], ["identical"] ([|S ∩ T| = k]), ["nested"] ([S ⊂ T]),
      ["singleton-equal"], ["singleton-disjoint"], ["disjoint"], and
      ["dense-universe"] ([n = 2k], no slack for universe reduction or
      bucketing).  Deterministic given the generator's root and [k]. *)
  val adversarial : Prng.Rng.t -> k:int -> shape list
end
