(** Protocol Basic-Intersection (Lemma 3.3).

    The parties exchange set sizes, then exchange [bits]-wide hash tags of
    their elements under a shared random function, and each keeps the
    elements whose tag appears on the other side:
    [S' = h^-1(h(T)) ∩ S] and [T' = h^-1(h(S)) ∩ T].

    Guarantees (Lemma 3.3):
    + [S' ⊆ S] and [T' ⊆ T];
    + if [S ∩ T = ∅] then ... [S' ∩ T' = ∅] with probability 1 — in this
      tag-based form the stronger statement holds that no element of [S']
      pairs with an equal element of [T'];
    + [S ∩ T ⊆ S'] and [S ∩ T ⊆ T'] with probability 1, and with
      probability at least [1 - failure], [S' = T' = S ∩ T].

    Four messages / four rounds, [O((|S| + |T|) * (log (|S| + |T|) +
    log (1 / failure)))] bits.

    The [write_tags]/[read_tag_keys]/[filter_by_tags] helpers expose the
    message bodies so the tree protocol (Section 3.3) can batch many
    instances of this protocol into single messages. *)

(** Tag width needed so that [m] elements produce no cross collisions except
    with probability [failure]. *)
val tag_bits : m:int -> failure:float -> int

(** [tag_bits_for ~failure] is [fun ~m -> tag_bits ~m ~failure], with the
    [failure] part worked out once. *)
val tag_bits_for : failure:float -> m:int -> int

(** Append the tags of all elements of a set. *)
val write_tags : Bitio.Bitbuf.t -> Strhash.fn -> Iset.t -> unit

(** Membership table of the other party's tags: keyed by the native-int
    tag ({!Strhash.int_tag}) when tags are at most 62 bits wide, by the
    tag's {!Bitio.Bits.key} otherwise. *)
type tag_table

(** Read [count] tags of [bits] bits each into a membership table.
    Raises [Bitio.Bitreader.Underflow] before allocating anything when
    fewer than [count * bits] bits remain, so a forged count cannot size
    the table. *)
val read_tag_keys : Bitio.Bitreader.t -> bits:int -> count:int -> tag_table

(** [tag_matches fn table x]: does [x]'s tag occur in the table?  [fn]
    as for {!filter_by_tags}. *)
val tag_matches : Strhash.fn -> tag_table -> int -> bool

(** Keep the elements whose tag occurs in the other party's table; [fn]
    must be the [bits]-wide function the table's tags were made with. *)
val filter_by_tags : Strhash.fn -> tag_table -> Iset.t -> Iset.t

(** Standalone 4-round runners ([failure] in (0, 1)).  Both sides must use
    generators in identical states. *)
val run_alice : Prng.Rng.t -> failure:float -> Commsim.Transport.t -> Iset.t -> Iset.t

(** Bob's side of {!run_alice}; same [failure] and generator contract. *)
val run_bob : Prng.Rng.t -> failure:float -> Commsim.Transport.t -> Iset.t -> Iset.t

(** Protocol record (runs the standalone form; sandwich contract holds). *)
val protocol : failure:float -> Protocol.t
