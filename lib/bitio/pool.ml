(* Domain-local freelists: Bitbuf writers and protocol run workspaces.

   Hot protocol paths assemble many short-lived payloads; allocating a
   fresh Bitbuf (and its backing bytes) per payload dominated their
   allocation profile.  The pool hands out reset writers from a per-domain
   freelist instead: acquisition pops, release resets and pushes.  Because
   the freelist is Domain.DLS-local there is no cross-domain sharing and
   no locking, and because a pooled buffer is always handed out reset, the
   bits a caller writes — and therefore every transcript — are identical
   to what a fresh buffer would produce.  A protocol's run workspace (its
   k-sized arrays) goes through a freelist of the same kind, one per
   workspace type.  Every borrow is scoped: the value goes back when the
   scope returns or raises, an abandoned player's unwinding included.

   A freelist is a LIFO stack on a growable array, so nested borrows
   simply take distinct values and a push or pop allocates nothing once
   the array has grown to the nesting depth.  [bypassed] switches the
   current domain to fresh allocation for the duration of a callback; the
   hot-path tests use it to check pooled and unpooled runs byte-for-byte
   against each other. *)

(* Cells [0, size) of [items] are the free values, the top last.  Cells
   at and above [size] may still hold values already handed out; they are
   never read, and the next push overwrites them. *)
type 'a stack = { mutable items : 'a array; mutable size : int }

let new_stack () = { items = [||]; size = 0 }

let push s x =
  if s.size = Array.length s.items then begin
    let items = Array.make (Int.max 4 (2 * s.size)) x in
    Array.blit s.items 0 items 0 s.size;
    s.items <- items
  end;
  Array.unsafe_set s.items s.size x;
  s.size <- s.size + 1

(* Only when [s.size > 0]. *)
let[@inline] pop s =
  s.size <- s.size - 1;
  Array.unsafe_get s.items s.size

let bypass : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

type 'a freelist = { free : 'a stack Domain.DLS.key; create : unit -> 'a; reset : 'a -> unit }

let freelist create = { free = Domain.DLS.new_key new_stack; create; reset = ignore }

let borrow fl =
  if !(Domain.DLS.get bypass) then fl.create ()
  else
    let free = Domain.DLS.get fl.free in
    if free.size = 0 then fl.create () else pop free

let give_back fl x =
  if not !(Domain.DLS.get bypass) then begin
    fl.reset x;
    push (Domain.DLS.get fl.free) x
  end

(* [Fun.protect] without its closures. *)
let using fl f =
  let x = borrow fl in
  match f x with
  | v -> give_back fl x; v
  | exception e -> give_back fl x; raise e

(* Pooled buffers start at a payload-sized capacity so most cells never
   regrow; a buffer that did grow keeps its larger storage for next time.
   Each is reset on its way back. *)
let writers = { (freelist (fun () -> Bitbuf.create ~capacity:1024 ())) with reset = Bitbuf.reset }

let with_buf f = using writers f

(* [with_buf] written out, so [f] runs without a second closure around
   it: the copy is taken before the buffer goes back. *)
let payload f =
  let buf = borrow writers in
  match f buf with
  | () -> let bits = Bitbuf.contents buf in give_back writers buf; bits
  | exception e -> give_back writers buf; raise e

module For_testing = struct
  let bypassed f =
    let flag = Domain.DLS.get bypass in
    let saved = !flag in
    flag := true;
    Fun.protect ~finally:(fun () -> flag := saved) f
end
