(** Whole-repo call graph over the {!Cmt_load} IR.

    Nodes are canonical binding names; an edge [a -> b] exists when
    [a]'s body references [b] and [b] is a loaded binding.  Adjacency
    is sorted, so traversals (and the reports built from them) are
    deterministic. *)

type t

val build : Cmt_load.modu list -> t
val binding : t -> string -> Cmt_load.binding option

(** All node names, sorted. *)
val names : t -> string list

(** All bindings, in sorted-name order. *)
val bindings : t -> Cmt_load.binding list

val succs : t -> string -> string list
val preds : t -> string -> string list

(** [reach_fwd g ~skip roots] — BFS forest over call edges from [roots],
    never expanding nodes satisfying [skip].  The result maps every
    reached node to its BFS parent (roots map to themselves); parent
    chains are lexicographically-least shortest paths, so messages built
    from them are byte-stable. *)
val reach_fwd : t -> skip:(string -> bool) -> string list -> (string, string) Hashtbl.t

(** Same, over reversed edges (who can reach me). *)
val reach_bwd : t -> skip:(string -> bool) -> string list -> (string, string) Hashtbl.t

(** Root-to-node path through a [reach_*] parent map. *)
val chain : (string, string) Hashtbl.t -> string -> string list
