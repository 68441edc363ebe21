type role = Alice | Bob

let joint_bits ~k =
  let k = max 1 k in
  int_of_float (Float.ceil (sqrt (float_of_int k))) + (2 * Iterated_log.log2_ceil (k + 2)) + 8

(* After this many tag iterations (probability ~2^-(2+4+8+...) per instance of
   getting here) the remaining strings are exchanged verbatim. *)
let default_max_iterations = 40

type group = { gid : int; mutable undecided : int list }

let length_prefixed_into buf instances idxs =
  List.iter
    (fun idx ->
      Bitio.Codes.write_gamma buf (Bitio.Bits.length instances.(idx));
      Bitio.Bitbuf.append buf instances.(idx))
    idxs

let length_prefixed instances idxs =
  Bitio.Pool.payload (fun buf -> length_prefixed_into buf instances idxs)

let run ?(sequential = true) ?(max_iterations = default_max_iterations) role rng chan instances =
  let open Commsim.Transport in
  let k = Array.length instances in
  let status = Array.make k `Undecided in
  let jbits = joint_bits ~k in
  (* Both parties derive the same tag generator from the shared rng and
     the same label coordinates.  The label is folded incrementally into
     one derivation cell reused for every tag of the run ([Rng.Label]
     hashes fragment by fragment, bit-identical to hashing the
     concatenated string), so deriving a tag's generator builds no label
     string and allocates nothing; the fused [Strhash.draw_*] then draw
     and apply the tag without building a [Strhash.fn].  The prefix
     "eqb/g<gid>/t<iteration>/i" is shared by a group's instances in a tag
     round: it is hashed once, marked, and rewound to per instance.
     [marked_gid]/[marked_iteration] name the marked prefix ([-1]: none,
     since a joint label's [restart] clears the mark). *)
  let cell = Prng.Rng.Label.start rng in
  let marked_gid = ref (-1) and marked_iteration = ref (-1) in
  let instance_gen ~gid ~iteration ~idx =
    if gid = !marked_gid && iteration = !marked_iteration then Prng.Rng.Label.rewind cell
    else begin
      Prng.Rng.Label.restart cell;
      Prng.Rng.Label.add cell "eqb/g";
      Prng.Rng.Label.add_int cell gid;
      Prng.Rng.Label.add cell "/t";
      Prng.Rng.Label.add_int cell iteration;
      Prng.Rng.Label.add cell "/i";
      Prng.Rng.Label.mark cell;
      marked_gid := gid;
      marked_iteration := iteration
    end;
    Prng.Rng.Label.add_int cell idx;
    Prng.Rng.Label.finish cell
  in
  let joint_gen ~gid ~iteration =
    marked_gid := -1;
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "eqb/joint/g";
    Prng.Rng.Label.add_int cell gid;
    Prng.Rng.Label.add cell "/t";
    Prng.Rng.Label.add_int cell iteration;
    Prng.Rng.Label.finish cell
  in
  (* Exchange of one tag vector over positions [0 .. n-1]: Alice ships her
     tags, Bob replies with the positions whose tags differ from his own.
     Returns the shared mismatch bitmap.  [emit] appends position [p]'s
     tag to the outgoing buffer; [check] consumes the peer's tag for
     position [p] from the reader (explicit left-to-right loop: the reader
     must advance in position order) and says whether it matches this
     side's. *)
  let tag_round n ~emit ~check =
    match role with
    | Alice ->
        chan.send
          (Bitio.Pool.payload (fun buf ->
               for p = 0 to n - 1 do
                 emit buf p
               done));
        Wire.read_bitmap_msg (chan.recv ()) ~width:n
    | Bob ->
        Bitio.Pool.with_reader (chan.recv ()) (fun reader ->
            let mismatches = Array.make n false in
            for p = 0 to n - 1 do
              mismatches.(p) <- not (check reader p)
            done;
            chan.send (Wire.bitmap_msg mismatches);
            mismatches)
  in
  (* Unconditional-termination fallback: exchange the remaining strings. *)
  let exact_round groups =
    let idxs = List.concat_map (fun g -> g.undecided) groups in
    Obsv.Metrics.incr "eq/exact_fallbacks";
    Obsv.Metrics.incr ~by:(List.length idxs) "eq/exact_instances";
    let mismatches =
      match role with
      | Alice ->
          chan.send (length_prefixed instances idxs);
          Wire.read_bitmap_msg (chan.recv ()) ~width:(List.length idxs)
      | Bob ->
          Bitio.Pool.with_reader (chan.recv ()) (fun reader ->
              let mismatches =
                Array.of_list
                  (List.map
                     (fun idx ->
                       let len = Bitio.Codes.read_gamma reader in
                       let theirs = Bitio.Bitreader.read_blob reader ~bits:len in
                       not (Bitio.Bits.equal theirs instances.(idx)))
                     idxs)
              in
              chan.send (Wire.bitmap_msg mismatches);
              mismatches)
    in
    List.iteri
      (fun pos idx -> status.(idx) <- (if mismatches.(pos) then `Unequal else `Equal))
      idxs
  in
  let group_count = if k = 0 then 0 else int_of_float (Float.ceil (sqrt (float_of_int k))) in
  (* One dirty flag per group, reused across iterations (gids index it
     directly; a per-iteration Hashtbl was pure churn). *)
  let dirty = Array.make (max 1 group_count) false in
  let process initial_groups =
    let active = ref initial_groups in
    let iteration = ref 0 in
    while !active <> [] do
      if !iteration >= max_iterations then begin
        Obsv.Trace.span Obsv.Phases.eq_exact (fun () -> exact_round !active);
        active := []
      end
      else begin
        let bits = min 32 (2 lsl !iteration) in
        Obsv.Metrics.incr "eq/tag_rounds";
        Obsv.Metrics.observe "eq/tag_bits" bits;
        (* Flatten the undecided entries into two parallel int arrays (the
           tuple list this replaces was rebuilt every iteration). *)
        let n = List.fold_left (fun acc g -> acc + List.length g.undecided) 0 !active in
        let egid = Array.make n 0 and eidx = Array.make n 0 in
        let pos = ref 0 in
        List.iter
          (fun g ->
            List.iter
              (fun idx ->
                egid.(!pos) <- g.gid;
                eidx.(!pos) <- idx;
                incr pos)
              g.undecided)
          !active;
        let mismatches =
          Obsv.Trace.span Obsv.Phases.eq_tags (fun () ->
              let gen p = instance_gen ~gid:egid.(p) ~iteration:!iteration ~idx:eidx.(p) in
              tag_round n
                ~emit:(fun buf p -> Strhash.draw_write (gen p) ~bits buf instances.(eidx.(p)))
                ~check:(fun reader p ->
                  Strhash.draw_matches (gen p) ~bits reader instances.(eidx.(p))))
        in
        (* Settle mismatching instances; remember which groups stayed clean. *)
        Array.fill dirty 0 (Array.length dirty) false;
        for p = 0 to n - 1 do
          if mismatches.(p) then begin
            status.(eidx.(p)) <- `Unequal;
            dirty.(egid.(p)) <- true
          end
        done;
        List.iter
          (fun g -> g.undecided <- List.filter (fun idx -> status.(idx) = `Undecided) g.undecided)
          !active;
        active := List.filter (fun g -> g.undecided <> []) !active;
        (* Clean, still-undecided groups take a joint verification test. *)
        let candidates = List.filter (fun g -> not dirty.(g.gid)) !active in
        if candidates <> [] then begin
          Obsv.Metrics.incr "eq/joint_checks";
          let cand = Array.of_list candidates in
          let passed =
            Obsv.Trace.span Obsv.Phases.eq_joint (fun () ->
                (* The joint payload is assembled in a scratch writer and
                   hashed through its zero-copy view; only the jbits-wide
                   tag reaches the wire. *)
                let with_joint g f =
                  Bitio.Pool.with_buf (fun tmp ->
                      length_prefixed_into tmp instances g.undecided;
                      f (joint_gen ~gid:g.gid ~iteration:!iteration) (Bitio.Bitbuf.view tmp))
                in
                tag_round (Array.length cand)
                  ~emit:(fun buf p ->
                    with_joint cand.(p) (fun gen payload ->
                        Strhash.draw_write gen ~bits:jbits buf payload))
                  ~check:(fun reader p ->
                    with_joint cand.(p) (fun gen payload ->
                        Strhash.draw_matches gen ~bits:jbits reader payload)))
          in
          (* [mismatch = false] means the joint tags agreed: declare equal. *)
          Array.iteri
            (fun pos g ->
              if not passed.(pos) then begin
                List.iter (fun idx -> status.(idx) <- `Equal) g.undecided;
                g.undecided <- []
              end)
            cand;
          active := List.filter (fun g -> g.undecided <> []) !active
        end;
        incr iteration
      end
    done
  in
  if k > 0 then begin
    let group_size = (k + group_count - 1) / group_count in
    let groups =
      List.init group_count (fun gid ->
          let lo = gid * group_size in
          let hi = min k (lo + group_size) in
          { gid; undecided = List.init (max 0 (hi - lo)) (fun i -> lo + i) })
      |> List.filter (fun g -> g.undecided <> [])
    in
    if sequential then List.iter (fun g -> process [ g ]) groups else process groups
  end;
  Array.map (fun st -> st = `Equal) status

let run_alice ?sequential ?max_iterations rng chan xs =
  run ?sequential ?max_iterations Alice rng chan xs

let run_bob ?sequential ?max_iterations rng chan ys =
  run ?sequential ?max_iterations Bob rng chan ys
