(** The verification tree of Section 3.3.

    A tree with [k] leaves and [r + 1] levels.  [L_0] is the leaves, [L_r]
    the root.  The degree at level 1 is [log^(r-1) k] and at level
    [2 <= i <= r] it is [log^(r-i) k / log^(r-i+1) k] (integer-clamped), so
    a node [v] in [L_i] covers about [log^(r-i) k] leaves — the shape that
    makes the per-stage equality traffic sum to [O(k log^(r) k)].

    Nodes cover contiguous leaf ranges of one width per level (the last
    node of a level may be short), so a built tree is closed-form: a span
    and a node count per level, [O(r)] words whatever [k]. *)

(** A built tree. *)
type t

(** [build ~k ~r] for [k >= 1], [r >= 1]. *)
val build : k:int -> r:int -> t

(** Number of nodes at [level] in [0, r]; raises [Invalid_argument] for
    any other level. *)
val nodes : t -> level:int -> int

(** [first t ~level i] is the first leaf node [i] of [level] covers: node
    [i] covers leaves [first t ~level i] to [first t ~level (i + 1) - 1].
    [first t ~level] rises strictly from [0] to [first t ~level (nodes t
    ~level) = k]; at level 0 it is the identity (each node a leaf), and
    [L_r] is the one node covering [0, k).  It is [min k (i * span)] for
    the level's span, so it is defined for every [i] in [0, nodes t
    ~level] without a lookup. *)
val first : t -> level:int -> int -> int

(** Target degree at [level] in [1, r] (before clamping to what remains). *)
val degree : k:int -> r:int -> level:int -> int
