(** The verification tree of Section 3.3.

    A tree with [k] leaves and [r + 1] levels.  [L_0] is the leaves, [L_r]
    the root.  The degree at level 1 is [log^(r-1) k] and at level
    [2 <= i <= r] it is [log^(r-i) k / log^(r-i+1) k] (integer-clamped), so
    a node [v] in [L_i] covers about [log^(r-i) k] leaves — the shape that
    makes the per-stage equality traffic sum to [O(k log^(r) k)].

    Nodes cover contiguous leaf ranges, so a level is just the list of its
    node boundaries. *)

(** A built tree.  Node [i] of level [l] covers leaves [bounds.(l).(i)]
    to [bounds.(l).(i + 1) - 1]: [bounds.(l)] rises strictly from [0] to
    [k], [bounds.(0)] is [0, 1, ..., k] and [bounds.(r)] is [\[|0; k|\]].
    [private] so shapes only come from {!build}. *)
type t = private { k : int; r : int; bounds : int array array }

(** [build ~k ~r] for [k >= 1], [r >= 1]. *)
val build : k:int -> r:int -> t

(** Number of nodes at [level] in [0, r]. *)
val nodes : t -> level:int -> int

(** Target degree at [level] in [1, r] (before clamping to what remains). *)
val degree : k:int -> r:int -> level:int -> int
