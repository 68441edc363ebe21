(** Domain-local pooling: {!Bitbuf} writers for allocation-lean payload
    assembly, and protocol run workspaces.

    Every buffer is handed out freshly {!Bitbuf.reset}, so the bits a
    caller writes are exactly what a newly created writer would produce:
    pooling changes allocation behaviour only, never transcripts.  Each
    freelist lives in [Domain.DLS], so each domain pools independently and
    no synchronisation is involved (this module carries the lint R4
    allowlist entry for [Domain.DLS] outside lib/engine and lib/obsv).  It
    is a stack on a growable array: once it has grown to the deepest
    nesting of borrows, a warm {!with_buf} or {!borrow} allocates nothing
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

(** [borrow fl] pops a value from the current domain's freelist, or
    creates one.  Under {!For_testing.bypassed} it always creates one.
    Values borrowed and not yet given back are distinct. *)
val borrow : 'a freelist -> 'a

(** [give_back fl x] pushes [x] for the next {!borrow} on this domain
    (dropped under {!For_testing.bypassed}).  Nothing may still use [x]
    afterwards.  A value never given back — its borrower raised or was
    abandoned — is simply left to the GC. *)
val give_back : 'a freelist -> 'a -> unit

(** Test instruments. *)
module For_testing : sig
  (** [bypassed f] runs [f] with pooling disabled on the current domain:
      every {!with_buf} and {!borrow} inside allocates afresh, to compare
      pooled and unpooled executions. *)
  val bypassed : (unit -> 'a) -> 'a
end
