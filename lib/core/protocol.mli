(** Common shape of all two-party [INT_k] protocols in this library.

    Every protocol takes the shared random generator, the universe size, and
    the two input sets, runs over the {!Commsim} channel, and produces both
    parties' outputs plus the exact communication cost.

    The {e candidate-sandwich} contract: a protocol listed as [sandwich]
    guarantees, with probability 1, that
    [S ∩ T ⊆ alice ⊆ S] and [S ∩ T ⊆ bob ⊆ T].  Under this contract,
    [alice = bob] implies both equal [S ∩ T] (Corollary 3.4 / Proposition
    3.9), which is what {!Verified} exploits to amplify success. *)

type outcome = { alice : Iset.t; bob : Iset.t; cost : Commsim.Cost.t }

type t = {
  name : string;
  sandwich : bool;  (** the candidate-sandwich contract above holds *)
  run : Prng.Rng.t -> universe:int -> Iset.t -> Iset.t -> outcome;
}

(** Did both parties output exactly [S ∩ T]? *)
val exact : outcome -> s:Iset.t -> t:Iset.t -> bool

(** Validate protocol inputs: sorted distinct elements inside the
    universe.  Raises [Invalid_argument] otherwise. *)
val validate_inputs : universe:int -> Iset.t -> Iset.t -> unit

(** Test references and instruments. *)
module For_testing : sig
  (** Check the sandwich contract on one outcome. *)
  val sandwich_holds : outcome -> s:Iset.t -> t:Iset.t -> bool
end
