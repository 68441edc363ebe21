(* Per-stage error target: 1 / (log^(r-i-1) k)^4, as in Algorithm 1. *)
let stage_failure fl = Float.min 0.25 (1.0 /. (float_of_int fl ** 4.0))

(* Tag width of the stage's equality tests: log2 of 1/failure. *)
let stage_eq_bits fl = Int.max 8 (4 * Iterated_log.log2_ceil (fl + 1))

(* Fallback for the budgeted variant: deterministic exchange of the
   original inputs over the same channel. *)
let trivial_fallback role chan mine =
  let open Commsim.Transport in
  Obsv.Metrics.incr "tree/fallbacks";
  Obsv.Trace.span Obsv.Phases.tree_fallback (fun () ->
      match role with
      | `Alice ->
          chan.send (Wire.of_set mine);
          Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (chan.recv ()))
      | `Bob ->
          let theirs = Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (chan.recv ())) in
          let intersection = Iset.inter theirs mine in
          chan.send (Wire.of_set intersection);
          intersection)

exception Over_budget

(* Re-runs match a leaf's narrow tags (at most 62 bits) against at most
   [scratch_tags] peer tags by a scan of one int scratch; wider tags, or
   more peer tags, go through Basic_intersection's table. *)
let scratch_tags = 32

(* Gap-code one leaf's live elements [idx.(first) ..] onto [buf],
   exactly as [Set_codec.write_gaps] codes its set. *)
let encode_leaf buf mine idx ~first ~live =
  Bitio.Codes.write_gamma buf live;
  let prev = ref (-1) in
  for j = first to first + live - 1 do
    let x = mine.(idx.(j)) in
    Bitio.Codes.write_delta buf (x - !prev - 1);
    prev := x
  done

(* Gap-code every leaf, in leaf order, into [buf] and record leaf [u]'s
   first bit in [off.(u)] ([off.(leaves)] is the end).  A node covers
   contiguous leaves, so its payload is one bit range of [buf]. *)
let encode_leaves buf ~leaves ~off mine idx start live =
  Bitio.Bitbuf.reset buf;
  for u = 0 to leaves - 1 do
    off.(u) <- Bitio.Bitbuf.length buf;
    encode_leaf buf mine idx ~first:start.(u) ~live:live.(u)
  done;
  off.(leaves) <- Bitio.Bitbuf.length buf

(* Leaves [a, b), coded in [src] at their (not yet moved) offsets, onto
   [dst] as one bit range; their offsets move by the same shift. *)
let copy_leaves dst src ~off a b =
  if a < b then begin
    let from = off.(a) in
    let shift = Bitio.Bitbuf.length dst - from in
    Bitio.Bitbuf.append_range dst src ~pos:from ~len:(off.(b) - from);
    for u = a to b - 1 do
      off.(u) <- off.(u) + shift
    done
  end

(* What [encode_leaves] would write into [dst], given [src] as it wrote it
   at [off] and the [nchanged] leaves, ascending in [changed], whose sets
   changed since: those are coded afresh, and every run of unchanged
   leaves between them is copied from [src].  Offsets at or above a leaf
   are still [src]'s when the copy reaches it. *)
let patch_leaves dst src ~leaves ~off ~changed ~nchanged mine idx start live =
  Bitio.Bitbuf.reset dst;
  let next = ref 0 in
  for c = 0 to nchanged - 1 do
    let u = changed.(c) in
    copy_leaves dst src ~off !next u;
    off.(u) <- Bitio.Bitbuf.length dst;
    encode_leaf dst mine idx ~first:start.(u) ~live:live.(u);
    next := u + 1
  done;
  copy_leaves dst src ~off !next leaves;
  off.(leaves) <- Bitio.Bitbuf.length dst

(* Node labels "tree/eq/s<stage>/v<vi>", for [vi] = 0, 1, ... in order:
   the prefix and every digit of [vi] but the last are hashed once per
   ten nodes and marked, and each node rewinds to them and adds its last
   digit. *)
let node_label cell ~stage vi =
  let open Prng.Rng.Label in
  if vi mod 10 = 0 then begin
    restart cell;
    add cell "tree/eq/s";
    add_int cell stage;
    add cell "/v";
    if vi > 0 then add_int cell (vi / 10);
    mark cell
  end;
  rewind cell;
  add_char cell (Char.unsafe_chr (Char.code '0' + (vi mod 10)))

(* List the leaves of node [vi] in [failed] from position [n]; the new
   count.  Nodes fail in order, so [failed] stays ascending. *)
let add_leaves failed n tree ~level vi =
  let n = ref n in
  for u = Vtree.first tree ~level vi to Vtree.first tree ~level (vi + 1) - 1 do
    failed.(!n) <- u;
    incr n
  done;
  !n

(* Read the failed-node bitmap (Wire's word layout, flag [vi] set iff
   node [vi] failed): list the failed nodes' leaves in [failed] and return
   their count. *)
let read_bitmap reader tree ~level failed =
  let nodes = Vtree.nodes tree ~level in
  let n = ref 0 and first = ref 0 in
  while !first < nodes do
    let w = Wire.read_bitmap_word reader ~width:nodes ~first:!first in
    for vi = !first to Int.min nodes (!first + Wire.bitmap_word) - 1 do
      if w land Wire.bitmap_bit vi <> 0 then n := add_leaves failed !n tree ~level vi
    done;
    first := !first + Wire.bitmap_word
  done;
  !n

(* [mine] filtered by the surviving leaf ranges, so still sorted. *)
let survivors mine ~leaves idx start live =
  let keep = Bytes.make (Array.length mine) '\000' in
  let count = ref 0 in
  for u = 0 to leaves - 1 do
    for j = start.(u) to start.(u) + live.(u) - 1 do
      Bytes.set keep idx.(j) '\001'
    done;
    count := !count + live.(u)
  done;
  let out = Array.make !count 0 in
  let w = ref 0 in
  for i = 0 to Array.length mine - 1 do
    if Bytes.get keep i <> '\000' then begin
      out.(!w) <- mine.(i);
      incr w
    end
  done;
  out

let run_party ?buckets ?flat_eq_bits ?budget role rng ~universe ~r ~k chan mine =
  if r < 1 || k < 1 then invalid_arg "Tree_protocol.run_party";
  let open Commsim.Transport in
  (* both parties see every message once, so sent + received is a shared
     counter and budget decisions stay in lockstep *)
  let seen_bits = ref 0 in
  let chan =
    match budget with
    | None -> chan
    | Some _ ->
        {
          send =
            (fun payload ->
              seen_bits := !seen_bits + Bitio.Bits.length payload;
              chan.send payload);
          recv =
            (fun () ->
              let payload = chan.recv () in
              seen_bits := !seen_bits + Bitio.Bits.length payload;
              payload);
        }
  in
  let check_budget () =
    match budget with Some b when !seen_bits > b -> raise Over_budget | _ -> ()
  in
  let leaves = match buckets with Some b -> Int.max 1 b | None -> k in
  let tree = Vtree.build ~k:leaves ~r in
  let bucket =
    Hashing.Carter_wegman.create (Prng.Rng.with_label rng "tree/bucket") ~universe ~range:leaves
  in
  let n = Array.length mine in
  (* One label-derivation cell for every node and leaf tag of the run:
     deriving a generator builds no label string ([Rng.Label] is
     bit-identical to [with_label] on the concatenated label). *)
  let cell = Prng.Rng.Label.start rng in
  (* Leaf state.  [idx] holds the indices into [mine] grouped by leaf (a
     counting sort), in leaf order and increasing within a leaf: leaf [u]
     owns [idx.(start.(u)) .. idx.(start.(u) + live.(u) - 1)], and its
     re-runs compact that range in place.  [off.(u)] is leaf [u]'s first
     bit in the stage buffer and [rerun.(u)] counts its re-runs so far.
     Per stage, [failed] lists the leaves below failed nodes, and Alice
     keeps Bob's sizes of them in [theirs]; after the re-runs its front
     lists the leaves that lost an element. *)
  let leaf = Array.map (Hashing.Carter_wegman.hash bucket) mine in
  let start = Array.make (leaves + 1) 0 in
  for i = 0 to n - 1 do
    start.(leaf.(i) + 1) <- start.(leaf.(i) + 1) + 1
  done;
  for u = 1 to leaves do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let idx = Array.make n 0 and live = Array.make leaves 0 in
  for i = 0 to n - 1 do
    let u = leaf.(i) in
    idx.(start.(u) + live.(u)) <- i;
    live.(u) <- live.(u) + 1
  done;
  let off = Array.make (leaves + 1) 0 and rerun = Array.make leaves 0 in
  let failed = Array.make leaves 0 in
  let theirs = match role with `Alice -> Array.make leaves 0 | `Bob -> [||] in
  let scratch = Array.make scratch_tags 0 and coef = Array.make Strhash.int_fn_slots 0 in
  (* Leaf labels "tree/bi/leaf<u>/run<rerun u>": each stage's re-runs mark
     the shared prefix once. *)
  let leaf_label u =
    Prng.Rng.Label.rewind cell;
    Prng.Rng.Label.add_int cell u;
    Prng.Rng.Label.add cell "/run";
    Prng.Rng.Label.add_int cell rerun.(u)
  in
  let narrow ~count ~bits = bits <= 62 && count <= scratch_tags in
  (* A narrow re-run function is drawn from the cell into [coef] (again
     at match time, rather than kept per leaf); a wide one is built. *)
  let wide_fn u ~bits =
    leaf_label u;
    Strhash.create (Prng.Rng.Label.finish cell) ~bits
  in
  let narrow_fn u ~bits =
    leaf_label u;
    Strhash.draw_int_fn cell ~bits coef
  in
  (* Alice's tags of leaf [u], before any filtering. *)
  let write_leaf_tags buf ~u ~count ~bits =
    let s = start.(u) in
    if narrow ~count ~bits then begin
      narrow_fn u ~bits;
      for j = s to s + live.(u) - 1 do
        Bitio.Bitbuf.write_bits buf ~width:bits (Strhash.stored_int_tag coef ~bits mine.(idx.(j)))
      done
    end
    else begin
      let fn = wide_fn u ~bits in
      for j = s to s + live.(u) - 1 do
        Strhash.write_int fn buf mine.(idx.(j))
      done
    end
  in
  (* Keep the elements of leaf [u] whose tag is among the [count] tags
     [reader] holds next; says whether it lost one.  On Bob's side each
     element's tag, before filtering, is also written to [echo]: a narrow
     tag is worked out once for both. *)
  let match_leaf ?echo reader ~u ~count ~bits =
    let s = start.(u) in
    let w = ref s in
    if narrow ~count ~bits then begin
      for t = 0 to count - 1 do
        scratch.(t) <- Bitio.Bitreader.read_bits reader ~width:bits
      done;
      narrow_fn u ~bits;
      for j = s to s + live.(u) - 1 do
        let tag = Strhash.stored_int_tag coef ~bits mine.(idx.(j)) in
        (match echo with Some buf -> Bitio.Bitbuf.write_bits buf ~width:bits tag | None -> ());
        let t = ref 0 in
        while !t < count && scratch.(!t) <> tag do
          incr t
        done;
        if !t < count then begin
          idx.(!w) <- idx.(j);
          incr w
        end
      done
    end
    else begin
      let table = Basic_intersection.read_tag_keys reader ~bits ~count in
      let fn = wide_fn u ~bits in
      for j = s to s + live.(u) - 1 do
        let x = mine.(idx.(j)) in
        (match echo with Some buf -> Strhash.write_int fn buf x | None -> ());
        if Basic_intersection.tag_matches fn table x then begin
          idx.(!w) <- idx.(j);
          incr w
        end
      done
    end;
    let kept = !w - s in
    let lost = kept < live.(u) in
    live.(u) <- kept;
    lost
  in
  let stages buf_a buf_b =
    (* [!cur] holds every leaf's gap code at [off]: coded whole at
       stage 0, then patched into [!spare] (and swapped) for the
       [nchanged] leaves a stage's re-runs changed. *)
    let cur = ref buf_a and spare = ref buf_b in
    let nchanged = ref 0 in
    for stage = 0 to r - 1 do
      check_budget ();
      let fl = Iterated_log.ilog (r - stage - 1) k in
      let eq_bits =
        match flat_eq_bits with Some b -> Int.max 2 b | None -> stage_eq_bits fl
      in
      let failure = stage_failure fl in
      let nodes = Vtree.nodes tree ~level:stage in
      let first vi = off.(Vtree.first tree ~level:stage vi) in
      if stage = 0 then encode_leaves !cur ~leaves ~off mine idx start live
      else if !nchanged > 0 then begin
        let src = !cur in
        patch_leaves !spare (Bitio.Bitbuf.view src) ~leaves ~off ~changed:failed
          ~nchanged:!nchanged mine idx start live;
        cur := !spare;
        spare := src
      end;
      nchanged := 0;
      (* Node [vi]'s payload is its leaves' gap codes back to back,
         as Wire.of_sets laid them out: one bit range of the stage
         buffer.  Only the eq_bits-wide tag reaches the wire. *)
      let payload = Bitio.Bitbuf.view !cur in
      (* Stage messages 1-2: batched equality tests at level
         L_stage.  Bob replies with the failed-node bitmap plus his
         bucket sizes under the failed nodes (needed to
         parameterize the re-runs). *)
      Obsv.Metrics.observe "tree/eq_bits" eq_bits;
      let nfailed =
        Obsv.Trace.span Obsv.Phases.tree_eq
          ~attrs:[ ("stage", string_of_int stage); ("eq_bits", string_of_int eq_bits) ]
          (fun () ->
            match role with
            | `Alice ->
                chan.send
                  (Bitio.Pool.payload (fun buf ->
                       for vi = 0 to nodes - 1 do
                         node_label cell ~stage vi;
                         let pos = first vi in
                         Strhash.draw_write_range cell ~bits:eq_bits buf payload ~pos
                           ~len:(first (vi + 1) - pos)
                       done));
                let reader = Bitio.Bitreader.create (chan.recv ()) in
                let nfailed = read_bitmap reader tree ~level:stage failed in
                for i = 0 to nfailed - 1 do
                  theirs.(i) <- Bitio.Codes.read_gamma reader
                done;
                nfailed
            | `Bob ->
                let reader = Bitio.Bitreader.create (chan.recv ()) in
                let nfailed = ref 0 in
                chan.send
                  (Bitio.Pool.payload (fun buf ->
                       let from = ref 0 in
                       while !from < nodes do
                         let word = ref 0 in
                         for vi = !from to Int.min nodes (!from + Wire.bitmap_word) - 1 do
                           node_label cell ~stage vi;
                           let pos = first vi in
                           if
                             not
                               (Strhash.draw_matches_range cell ~bits:eq_bits reader payload
                                  ~pos ~len:(first (vi + 1) - pos))
                           then begin
                             word := !word lor Wire.bitmap_bit vi;
                             nfailed := add_leaves failed !nfailed tree ~level:stage vi
                           end
                         done;
                         Wire.write_bitmap_word buf ~width:nodes ~first:!from !word;
                         from := !from + Wire.bitmap_word
                       done;
                       for i = 0 to !nfailed - 1 do
                         Bitio.Codes.write_gamma buf live.(failed.(i))
                       done));
                !nfailed)
      in
      (* Stage messages 3-4: batched Basic-Intersection re-runs on
         every leaf below a failed node (Lemma 3.3, with this
         stage's error target).  Alice ships her sizes and element
         tags; Bob filters his buckets, ships his own tags of the
         pre-filter buckets; Alice filters hers.  Each side then
         keeps the leaves that lost an element at the front of
         [failed], for the next stage's patch. *)
      if nfailed > 0 then begin
        Obsv.Metrics.incr ~by:nfailed "tree/failed_leaves";
        let tag_bits = Basic_intersection.tag_bits_for ~failure in
        let bits_of u count = tag_bits ~m:(live.(u) + count) in
        let changed u lost =
          rerun.(u) <- rerun.(u) + 1;
          if lost then begin
            failed.(!nchanged) <- u;
            incr nchanged
          end
        in
        Prng.Rng.Label.restart cell;
        Prng.Rng.Label.add cell "tree/bi/leaf";
        Prng.Rng.Label.mark cell;
        Obsv.Trace.span Obsv.Phases.tree_rerun ~attrs:[ ("stage", string_of_int stage) ]
          (fun () ->
            match role with
            | `Alice ->
                chan.send
                  (Bitio.Pool.payload (fun buf ->
                       for i = 0 to nfailed - 1 do
                         let u = failed.(i) and count = theirs.(i) in
                         Bitio.Codes.write_gamma buf live.(u);
                         write_leaf_tags buf ~u ~count ~bits:(bits_of u count)
                       done));
                let reader = Bitio.Bitreader.create (chan.recv ()) in
                for i = 0 to nfailed - 1 do
                  let u = failed.(i) and count = theirs.(i) in
                  changed u (match_leaf reader ~u ~count ~bits:(bits_of u count))
                done
            | `Bob ->
                let reader = Bitio.Bitreader.create (chan.recv ()) in
                chan.send
                  (Bitio.Pool.payload (fun buf ->
                       let echo = Some buf in
                       for i = 0 to nfailed - 1 do
                         let u = failed.(i) in
                         let count = Bitio.Codes.read_gamma reader in
                         changed u (match_leaf ?echo reader ~u ~count ~bits:(bits_of u count))
                       done)))
      end
    done
  in
  match Bitio.Pool.with_buf (fun buf_a -> Bitio.Pool.with_buf (fun buf_b -> stages buf_a buf_b)) with
  | () -> survivors mine ~leaves idx start live
  | exception Over_budget ->
      (* stage boundaries are synchronized, so both parties land here with
         the channel quiescent *)
      trivial_fallback role chan mine

let protocol ?buckets ?flat_eq_bits ?k ~r () =
  {
    Protocol.name = Printf.sprintf "tree(r=%d)" r;
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = match k with Some k -> k | None -> Int.max 1 (Int.max (Array.length s) (Array.length t)) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ?buckets ?flat_eq_bits `Alice rng ~universe ~r ~k chan s)
            ~bob:(fun chan -> run_party ?buckets ?flat_eq_bits `Bob rng ~universe ~r ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }

let protocol_log_star ?k () =
  let base ~k_eff = Iterated_log.log_star k_eff in
  {
    Protocol.name = "tree(r=log* k)";
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        let k_eff =
          match k with Some k -> k | None -> Int.max 1 (Int.max (Array.length s) (Array.length t))
        in
        let r = Int.max 1 (base ~k_eff) in
        (protocol ~k:k_eff ~r ()).Protocol.run rng ~universe s t);
  }

module For_testing = struct
  let encode_leaves = encode_leaves
  let patch_leaves = patch_leaves
  let node_label = node_label
end
