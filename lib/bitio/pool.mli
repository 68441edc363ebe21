(** Domain-local pooling: {!Bitbuf} writers for allocation-lean payload
    assembly, and protocol run workspaces.

    Every buffer is handed out freshly {!Bitbuf.reset}, so the bits a
    caller writes are exactly what a newly created writer would produce:
    pooling changes allocation behaviour only, never transcripts.  Each
    freelist lives in [Domain.DLS], so each domain pools independently and
    no synchronisation is involved (this module carries the lint R4
    allowlist entry for [Domain.DLS] outside lib/engine and lib/obsv).  It
    is a stack on a growable array: once it has grown to the deepest
    nesting of borrows, a warm {!with_buf} or {!using} allocates nothing
    of its own and a warm {!payload} only its copy. *)

(** [with_buf f] runs [f] with a reset writer borrowed from the current
    domain's freelist and returns the writer on exit (also on exception).
    The writer — and any {!Bitbuf.view} or {!Bitreader.of_bitbuf} over it —
    must not escape [f]; results that outlive the call must be frozen with
    {!Bitbuf.contents}.  Nested calls borrow distinct writers. *)
val with_buf : (Bitbuf.t -> 'a) -> 'a

(** [payload f] assembles one payload: runs [f] on a borrowed writer and
    returns the frozen (copied, safe-to-keep) {!Bitbuf.contents}.  The
    common one-message case of {!with_buf}, calling [f] directly rather
    than through a closure around it. *)
val payload : (Bitbuf.t -> unit) -> Bits.t

(** A per-domain freelist of one type of value: a protocol's run
    workspace, the arrays it would otherwise allocate afresh each run.
    The workspace's owner grows it to fit each run and initialises what
    the run reads before writing; the freelist hands values back as they
    were given back. *)
type 'a freelist

(** [freelist create]: [create] makes a value when the current domain's
    freelist is empty.  Build it once, at module initialisation; each
    domain then keeps its own stack. *)
val freelist : (unit -> 'a) -> 'a freelist

(** [using fl f] runs [f] on a value popped from the current domain's
    freelist (or created, when it is empty or under
    {!For_testing.bypassed}) and pushes the value back when [f] returns
    or raises — also when a simulated player is unwound with
    [Obsv.Trace.Abandoned] at the end of its run.  The value must not
    escape [f].  Nested calls get distinct values. *)
val using : 'a freelist -> ('a -> 'b) -> 'b

(** Test instruments. *)
module For_testing : sig
  (** [bypassed f] runs [f] with pooling disabled on the current domain:
      every {!with_buf} and {!using} inside allocates afresh, to compare
      pooled and unpooled executions. *)
  val bypassed : (unit -> 'a) -> 'a
end
