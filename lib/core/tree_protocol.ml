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
  let assign = Iset.partition_by (Hashing.Carter_wegman.hash bucket) ~bins:leaves mine in
  let rerun = Array.make leaves 0 in
  (* One label-derivation cell for every node and leaf tag of the run:
     deriving a generator builds no label string ([Rng.Label] is
     bit-identical to [with_label] on the concatenated label). *)
  let cell = Prng.Rng.Label.start rng in
  try
    for stage = 0 to r - 1 do
      check_budget ();
    let fl = Iterated_log.ilog (r - stage - 1) k in
    let eq_bits = match flat_eq_bits with Some b -> max 2 b | None -> stage_eq_bits fl in
    let failure = stage_failure fl in
    let nodes = tree.Vtree.levels.(stage) in
    (* Node labels "tree/eq/s<stage>/v<vi>" share their prefix within the
       stage: hash it once, then rewind to it per node.  The re-runs below
       [restart] the cell, so each stage marks afresh. *)
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "tree/eq/s";
    Prng.Rng.Label.add_int cell stage;
    Prng.Rng.Label.add cell "/v";
    Prng.Rng.Label.mark cell;
    let node_gen vi =
      Prng.Rng.Label.rewind cell;
      Prng.Rng.Label.add_int cell vi;
      Prng.Rng.Label.finish cell
    in
    (* The node's payload (its leaves' gap-coded buckets, as Wire.of_sets
       laid them out) is assembled in the stage's scratch writer and hashed
       through the zero-copy view; only the eq_bits-wide tag reaches the
       wire. *)
    let node_payload tmp (node : Vtree.node) =
      Bitio.Bitbuf.reset tmp;
      for u = node.first_leaf to node.first_leaf + node.leaf_count - 1 do
        Bitio.Set_codec.write_gaps tmp assign.(u)
      done;
      Bitio.Bitbuf.view tmp
    in
    (* Stage messages 1-2: batched equality tests at level L_stage.  Bob
       replies with the failed-node bitmap plus his bucket sizes under the
       failed nodes (needed to parameterize the re-runs). *)
    Obsv.Metrics.observe "tree/eq_bits" eq_bits;
    let failed_leaves, their_sizes =
      Obsv.Trace.span Obsv.Phases.tree_eq
        ~attrs:[ ("stage", string_of_int stage); ("eq_bits", string_of_int eq_bits) ]
        (fun () ->
          match role with
          | `Alice ->
          chan.send
            (Bitio.Pool.payload (fun buf ->
                 Bitio.Pool.with_buf (fun tmp ->
                     Array.iteri
                       (fun vi node ->
                         let payload = node_payload tmp node in
                         Strhash.draw_write (node_gen vi) ~bits:eq_bits buf payload)
                       nodes)));
          let reader = Bitio.Bitreader.create (chan.recv ()) in
          let failed =
            Array.init (Array.length nodes) (fun _ -> Bitio.Bitreader.read_bit reader)
          in
          let failed_leaves =
            Array.to_list nodes
            |> List.mapi (fun vi node -> if failed.(vi) then Vtree.leaves node else [])
            |> List.concat
          in
          let their_sizes = List.map (fun _ -> Bitio.Codes.read_gamma reader) failed_leaves in
          (failed_leaves, their_sizes)
      | `Bob ->
          let reader = Bitio.Bitreader.create (chan.recv ()) in
          let failed =
            Bitio.Pool.with_buf (fun tmp ->
                Array.mapi
                  (fun vi node ->
                    let payload = node_payload tmp node in
                    not (Strhash.draw_matches (node_gen vi) ~bits:eq_bits reader payload))
                  nodes)
          in
          let failed_leaves =
            Array.to_list nodes
            |> List.mapi (fun vi node -> if failed.(vi) then Vtree.leaves node else [])
            |> List.concat
          in
          chan.send
            (Bitio.Pool.payload (fun buf ->
                 Array.iter (Bitio.Bitbuf.write_bit buf) failed;
                 List.iter
                   (fun u -> Bitio.Codes.write_gamma buf (Array.length assign.(u)))
                   failed_leaves));
          (failed_leaves, List.map (fun u -> Array.length assign.(u)) failed_leaves))
    in
    (* Stage messages 3-4: batched Basic-Intersection re-runs on every leaf
       below a failed node (Lemma 3.3, with this stage's error target).
       Alice ships her sizes and element tags; Bob filters his buckets,
       ships his own tags of the pre-filter buckets; Alice filters hers. *)
    if failed_leaves <> [] then begin
      Obsv.Metrics.incr ~by:(List.length failed_leaves) "tree/failed_leaves";
      let leaf_fn u m =
        Prng.Rng.Label.restart cell;
        Prng.Rng.Label.add cell "tree/bi/leaf";
        Prng.Rng.Label.add_int cell u;
        Prng.Rng.Label.add cell "/run";
        Prng.Rng.Label.add_int cell rerun.(u);
        Strhash.create (Prng.Rng.Label.finish cell) ~bits:(Basic_intersection.tag_bits ~m ~failure)
      in
      Obsv.Trace.span Obsv.Phases.tree_rerun ~attrs:[ ("stage", string_of_int stage) ] (fun () ->
      match role with
      | `Alice ->
          let sizes = List.combine failed_leaves their_sizes in
          let msg, fns =
            Bitio.Pool.with_buf (fun buf ->
                let fns =
                  List.map
                    (fun (u, their_size) ->
                      let m = Array.length assign.(u) + their_size in
                      let fn = leaf_fn u m in
                      Bitio.Codes.write_gamma buf (Array.length assign.(u));
                      Basic_intersection.write_tags buf fn assign.(u);
                      (u, their_size, fn))
                    sizes
                in
                (Bitio.Bitbuf.contents buf, fns))
          in
          chan.send msg;
          let reader = Bitio.Bitreader.create (chan.recv ()) in
          List.iter
            (fun (u, their_size, fn) ->
              let table =
                Basic_intersection.read_tag_keys reader ~bits:(Strhash.bits fn) ~count:their_size
              in
              assign.(u) <- Basic_intersection.filter_by_tags fn table assign.(u))
            fns
      | `Bob ->
          let reader = Bitio.Bitreader.create (chan.recv ()) in
          chan.send
            (Bitio.Pool.payload (fun buf ->
                 List.iter
                   (fun u ->
                     let their_size = Bitio.Codes.read_gamma reader in
                     let m = Array.length assign.(u) + their_size in
                     let fn = leaf_fn u m in
                     let table =
                       Basic_intersection.read_tag_keys reader ~bits:(Strhash.bits fn)
                         ~count:their_size
                     in
                     Basic_intersection.write_tags buf fn assign.(u);
                     assign.(u) <- Basic_intersection.filter_by_tags fn table assign.(u))
                   failed_leaves)));
      List.iter (fun u -> rerun.(u) <- rerun.(u) + 1) failed_leaves
    end
    done;
    Iset.of_array (Array.concat (Array.to_list assign))
  with Over_budget ->
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
