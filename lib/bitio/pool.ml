(* Domain-local freelist of Bitbuf writers.

   Hot protocol paths assemble many short-lived payloads; allocating a
   fresh Bitbuf (and its backing bytes) per payload dominated their
   allocation profile.  The pool hands out reset writers from a per-domain
   freelist instead: acquisition pops, release resets and pushes.  Because
   the freelist is Domain.DLS-local there is no cross-domain sharing and
   no locking, and because a pooled buffer is always handed out reset, the
   bits a caller writes — and therefore every transcript — are identical
   to what a fresh buffer would produce.

   The freelist is a LIFO list, so nested [with_buf] calls simply take
   distinct buffers.  [bypassed] switches the current domain to fresh
   allocation for the duration of a callback; the hot-path tests use it to
   check pooled and unpooled runs byte-for-byte against each other. *)

let freelist : Bitbuf.t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let bypass : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Pooled buffers start at a payload-sized capacity so most cells never
   regrow; a buffer that did grow keeps its larger storage for next time. *)
let fresh () = Bitbuf.create ~capacity:1024 ()

let release free buf =
  Bitbuf.reset buf;
  free := buf :: !free

let with_buf f =
  if !(Domain.DLS.get bypass) then f (fresh ())
  else begin
    let free = Domain.DLS.get freelist in
    let buf =
      match !free with
      | [] -> fresh ()
      | buf :: rest ->
          free := rest;
          buf
    in
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

let payload f = with_buf (fun buf -> f buf; Bitbuf.contents buf)

(* Reader cells are recycled the same way.  No [Fun.protect]: a cell in
   flight when an exception unwinds is simply dropped (the next acquisition
   allocates a fresh one), which keeps the happy path free of closure
   setup.  Parking the cell on [Bits.empty] releases its payload
   reference. *)
let readers : Bitreader.t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let with_reader bits f =
  if !(Domain.DLS.get bypass) then f (Bitreader.create bits)
  else begin
    let free = Domain.DLS.get readers in
    let reader =
      match !free with
      | [] -> Bitreader.create bits
      | r :: rest ->
          free := rest;
          Bitreader.reset r bits;
          r
    in
    let v = f reader in
    Bitreader.reset reader Bits.empty;
    free := reader :: !free;
    v
  end

let bypassed f =
  let flag = Domain.DLS.get bypass in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) f
