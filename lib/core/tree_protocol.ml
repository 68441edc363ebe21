(* Per-stage error target: 1 / (log^(r-i-1) k)^4, as in Algorithm 1. *)
let stage_failure fl = Float.min 0.25 (1.0 /. (float_of_int fl ** 4.0))

(* Tag width of the stage's equality tests: log2 of 1/failure. *)
let stage_eq_bits fl = max 8 (4 * Iterated_log.log2_ceil (fl + 1))

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

(* Gap-code every leaf, in leaf order, into [buf] — each leaf exactly as
   [Set_codec.write_gaps] codes its set — and record leaf [u]'s first bit
   in [off.(u)] ([off.(leaves)] is the end).  A node covers contiguous
   leaves, so its payload is one bit range of [buf]. *)
let encode_leaves buf ~leaves ~off mine idx start live =
  Bitio.Bitbuf.reset buf;
  for u = 0 to leaves - 1 do
    off.(u) <- Bitio.Bitbuf.length buf;
    Bitio.Codes.write_gamma buf live.(u);
    let prev = ref (-1) in
    for j = start.(u) to start.(u) + live.(u) - 1 do
      let x = mine.(idx.(j)) in
      Bitio.Codes.write_delta buf (x - !prev - 1);
      prev := x
    done
  done;
  off.(leaves) <- Bitio.Bitbuf.length buf

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
  let leaves = match buckets with Some b -> max 1 b | None -> k in
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
     keeps Bob's sizes of them in [theirs]. *)
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
  let failed = Array.make leaves 0 and theirs = Array.make leaves 0 in
  let scratch = Array.make scratch_tags 0 in
  (* Leaf labels "tree/bi/leaf<u>/run<rerun u>": each stage's re-runs mark
     the shared prefix once. *)
  let leaf_gen u =
    Prng.Rng.Label.rewind cell;
    Prng.Rng.Label.add_int cell u;
    Prng.Rng.Label.add cell "/run";
    Prng.Rng.Label.add_int cell rerun.(u);
    Prng.Rng.Label.finish cell
  in
  let narrow ~count ~bits = bits <= 62 && count <= scratch_tags in
  (* Draw leaf [u]'s re-run function — a narrow one into [coef.(pos)] —
     and write this party's tags of the leaf, before any filtering, to
     [buf]. *)
  let write_leaf_tags buf ~coef ~pos ~u ~count ~bits =
    let s = start.(u) in
    if narrow ~count ~bits then begin
      Strhash.store_int_fn (leaf_gen u) ~bits coef ~pos;
      for j = s to s + live.(u) - 1 do
        Bitio.Bitbuf.write_bits buf ~width:bits
          (Strhash.stored_int_tag coef ~pos ~bits mine.(idx.(j)))
      done
    end
    else begin
      let fn = Strhash.create (leaf_gen u) ~bits in
      for j = s to s + live.(u) - 1 do
        Strhash.write_int fn buf mine.(idx.(j))
      done
    end
  in
  (* Keep the elements of leaf [u] whose tag is among the [count] peer
     tags [reader] holds next; a wide function is drawn again from its
     label.  Says whether the leaf lost an element. *)
  let match_leaf reader ~coef ~pos ~u ~count ~bits =
    let s = start.(u) in
    let w = ref s in
    if narrow ~count ~bits then begin
      for t = 0 to count - 1 do
        scratch.(t) <- Bitio.Bitreader.read_bits reader ~width:bits
      done;
      for j = s to s + live.(u) - 1 do
        let tag = Strhash.stored_int_tag coef ~pos ~bits mine.(idx.(j)) in
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
      let fn = Strhash.create (leaf_gen u) ~bits in
      let table = Basic_intersection.read_tag_keys reader ~bits ~count in
      for j = s to s + live.(u) - 1 do
        if Basic_intersection.tag_matches fn table mine.(idx.(j)) then begin
          idx.(!w) <- idx.(j);
          incr w
        end
      done
    end;
    let lost = !w - s < live.(u) in
    live.(u) <- !w - s;
    lost
  in
  match
    Bitio.Pool.with_buf (fun stage_buf ->
        (* The stage buffer holds every leaf's gap code; it is rebuilt
           only after a re-run has changed a leaf. *)
        let dirty = ref true in
        for stage = 0 to r - 1 do
          check_budget ();
          let fl = Iterated_log.ilog (r - stage - 1) k in
          let eq_bits =
            match flat_eq_bits with Some b -> max 2 b | None -> stage_eq_bits fl
          in
          let failure = stage_failure fl in
          let bounds = tree.Vtree.bounds.(stage) in
          let nodes = Vtree.nodes tree ~level:stage in
          if !dirty then begin
            encode_leaves stage_buf ~leaves ~off mine idx start live;
            dirty := false
          end;
          let payload = Bitio.Bitbuf.view stage_buf in
          (* Node labels "tree/eq/s<stage>/v<vi>" share their prefix
             within the stage: hash it once, then rewind to it per
             node.  The re-runs below [restart] the cell, so each
             stage marks afresh. *)
          Prng.Rng.Label.restart cell;
          Prng.Rng.Label.add cell "tree/eq/s";
          Prng.Rng.Label.add_int cell stage;
          Prng.Rng.Label.add cell "/v";
          Prng.Rng.Label.mark cell;
          let node_label vi =
            Prng.Rng.Label.rewind cell;
            Prng.Rng.Label.add_int cell vi;
            cell
          in
          (* Node [vi]'s payload is its leaves' gap codes back to back,
             as Wire.of_sets laid them out: one bit range of the stage
             buffer.  Only the eq_bits-wide tag reaches the wire. *)
          let first vi = off.(bounds.(vi)) in
          let length vi = off.(bounds.(vi + 1)) - first vi in
          let nfailed = ref 0 in
          let fail vi =
            for u = bounds.(vi) to bounds.(vi + 1) - 1 do
              failed.(!nfailed) <- u;
              incr nfailed
            done
          in
          (* Stage messages 1-2: batched equality tests at level
             L_stage.  Bob replies with the failed-node bitmap plus his
             bucket sizes under the failed nodes (needed to
             parameterize the re-runs). *)
          Obsv.Metrics.observe "tree/eq_bits" eq_bits;
          Obsv.Trace.span Obsv.Phases.tree_eq
            ~attrs:[ ("stage", string_of_int stage); ("eq_bits", string_of_int eq_bits) ]
            (fun () ->
              match role with
              | `Alice ->
                  chan.send
                    (Bitio.Pool.payload (fun buf ->
                         for vi = 0 to nodes - 1 do
                           Strhash.draw_write_range (node_label vi) ~bits:eq_bits buf payload
                             ~pos:(first vi) ~len:(length vi)
                         done));
                  let reader = Bitio.Bitreader.create (chan.recv ()) in
                  for vi = 0 to nodes - 1 do
                    if Bitio.Bitreader.read_bit reader then fail vi
                  done;
                  for i = 0 to !nfailed - 1 do
                    theirs.(i) <- Bitio.Codes.read_gamma reader
                  done
              | `Bob ->
                  let reader = Bitio.Bitreader.create (chan.recv ()) in
                  chan.send
                    (Bitio.Pool.payload (fun buf ->
                         for vi = 0 to nodes - 1 do
                           let ok =
                             Strhash.draw_matches_range (node_label vi) ~bits:eq_bits reader
                               payload ~pos:(first vi) ~len:(length vi)
                           in
                           Bitio.Bitbuf.write_bit buf (not ok);
                           if not ok then fail vi
                         done;
                         for i = 0 to !nfailed - 1 do
                           Bitio.Codes.write_gamma buf live.(failed.(i))
                         done)));
          (* Stage messages 3-4: batched Basic-Intersection re-runs on
             every leaf below a failed node (Lemma 3.3, with this
             stage's error target).  Alice ships her sizes and element
             tags; Bob filters his buckets, ships his own tags of the
             pre-filter buckets; Alice filters hers. *)
          let nfailed = !nfailed in
          if nfailed > 0 then begin
            Obsv.Metrics.incr ~by:nfailed "tree/failed_leaves";
            let tag_bits = Basic_intersection.tag_bits_for ~failure in
            let bits_of u count = tag_bits ~m:(live.(u) + count) in
            Prng.Rng.Label.restart cell;
            Prng.Rng.Label.add cell "tree/bi/leaf";
            Prng.Rng.Label.mark cell;
            Obsv.Trace.span Obsv.Phases.tree_rerun ~attrs:[ ("stage", string_of_int stage) ]
              (fun () ->
                match role with
                | `Alice ->
                    (* Alice keeps the narrow functions until Bob's reply. *)
                    let coef = Array.make (Strhash.int_fn_slots * nfailed) 0 in
                    chan.send
                      (Bitio.Pool.payload (fun buf ->
                           for i = 0 to nfailed - 1 do
                             let u = failed.(i) and count = theirs.(i) in
                             Bitio.Codes.write_gamma buf live.(u);
                             write_leaf_tags buf ~coef ~pos:(Strhash.int_fn_slots * i) ~u ~count
                               ~bits:(bits_of u count)
                           done));
                    let reader = Bitio.Bitreader.create (chan.recv ()) in
                    for i = 0 to nfailed - 1 do
                      let u = failed.(i) and count = theirs.(i) in
                      let bits = bits_of u count in
                      if match_leaf reader ~coef ~pos:(Strhash.int_fn_slots * i) ~u ~count ~bits
                      then dirty := true
                    done
                | `Bob ->
                    let coef = Array.make Strhash.int_fn_slots 0 in
                    let reader = Bitio.Bitreader.create (chan.recv ()) in
                    chan.send
                      (Bitio.Pool.payload (fun buf ->
                           for i = 0 to nfailed - 1 do
                             let u = failed.(i) in
                             let count = Bitio.Codes.read_gamma reader in
                             let bits = bits_of u count in
                             write_leaf_tags buf ~coef ~pos:0 ~u ~count ~bits;
                             if match_leaf reader ~coef ~pos:0 ~u ~count ~bits then dirty := true
                           done)));
            for i = 0 to nfailed - 1 do
              rerun.(failed.(i)) <- rerun.(failed.(i)) + 1
            done
          end
        done)
  with
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
        let k = match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t)) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ?buckets ?flat_eq_bits `Alice rng ~universe ~r ~k chan s)
            ~bob:(fun chan -> run_party ?buckets ?flat_eq_bits `Bob rng ~universe ~r ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }

let protocol_budgeted ?(budget_factor = 64) ?k ~r () =
  {
    Protocol.name = Printf.sprintf "tree-budgeted(r=%d,factor=%d)" r budget_factor;
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t)) in
        let budget = budget_factor * k * max 1 (Iterated_log.ilog r k) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ~budget `Alice rng ~universe ~r ~k chan s)
            ~bob:(fun chan -> run_party ~budget `Bob rng ~universe ~r ~k chan t)
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
          match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t))
        in
        let r = max 1 (base ~k_eff) in
        (protocol ~k:k_eff ~r ()).Protocol.run rng ~universe s t);
  }
