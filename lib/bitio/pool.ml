(* Domain-local freelist of Bitbuf writers.

   Hot protocol paths assemble many short-lived payloads; allocating a
   fresh Bitbuf (and its backing bytes) per payload dominated their
   allocation profile.  The pool hands out reset writers from a per-domain
   freelist instead: acquisition pops, release resets and pushes.  Because
   the freelist is Domain.DLS-local there is no cross-domain sharing and
   no locking, and because a pooled buffer is always handed out reset, the
   bits a caller writes — and therefore every transcript — are identical
   to what a fresh buffer would produce.

   The freelist is a LIFO stack on a growable array, so nested
   [with_buf] calls simply take distinct buffers and a push or pop
   allocates nothing once the array has grown to the nesting depth.
   [bypassed] switches the current domain to fresh allocation for the
   duration of a callback; the hot-path tests use it to check pooled and
   unpooled runs byte-for-byte against each other. *)

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

let writers : Bitbuf.t stack Domain.DLS.key = Domain.DLS.new_key new_stack
let bypass : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Pooled buffers start at a payload-sized capacity so most cells never
   regrow; a buffer that did grow keeps its larger storage for next time. *)
let fresh () = Bitbuf.create ~capacity:1024 ()

let acquire free = if free.size = 0 then fresh () else pop free

let release free buf =
  Bitbuf.reset buf;
  push free buf

let with_buf f =
  if !(Domain.DLS.get bypass) then f (fresh ())
  else begin
    let free = Domain.DLS.get writers in
    let buf = acquire free in
    (* [Fun.protect] without its closures: the buffer goes back on the
       freelist whether [f] returns or raises. *)
    match f buf with
    | v ->
        release free buf;
        v
    | exception e ->
        release free buf;
        raise e
  end

(* [with_buf] written out, so [f] runs without a second closure around
   it: the copy is taken before the buffer goes back. *)
let payload f =
  if !(Domain.DLS.get bypass) then begin
    let buf = fresh () in
    f buf;
    Bitbuf.contents buf
  end
  else begin
    let free = Domain.DLS.get writers in
    let buf = acquire free in
    match f buf with
    | () ->
        let bits = Bitbuf.contents buf in
        release free buf;
        bits
    | exception e ->
        release free buf;
        raise e
  end

module For_testing = struct
  let bypassed f =
    let flag = Domain.DLS.get bypass in
    let saved = !flag in
    flag := true;
    Fun.protect ~finally:(fun () -> flag := saved) f
end
