type role = Alice | Bob

let joint_bits ~k =
  let k = Int.max 1 k in
  int_of_float (Float.ceil (sqrt (float_of_int k))) + (2 * Iterated_log.log2_ceil (k + 2)) + 8

(* After this many tag iterations (probability ~2^-(2+4+8+...) per instance of
   getting here) the remaining strings are exchanged verbatim. *)
let default_max_iterations = 40

(* Bob's verdicts go straight into his reply, a word at a time: verdict
   [p] of [width] joins [word], and a word is written out once its last
   flag is in.  Returns the word to carry on with. *)
let[@inline] add_flag buf ~width p word mismatch =
  let word = if mismatch then word lor Wire.bitmap_bit p else word in
  let first = p - (p mod Wire.bitmap_word) in
  if p + 1 = width || p + 1 = first + Wire.bitmap_word then begin
    Wire.write_bitmap_word buf ~width ~first word;
    0
  end
  else word

(* Bob's reply to a round: the verdict bitmap [write] puts in a fresh
   payload, sent and kept for his own settling. *)
let send_reply (chan : Commsim.Transport.t) write =
  let reply = Bitio.Pool.payload write in
  chan.send reply;
  reply

let run ?(sequential = true) ?(max_iterations = default_max_iterations) role rng chan instances =
  let open Commsim.Transport in
  let k = Array.length instances in
  let jbits = joint_bits ~k in
  let group_count = if k = 0 then 0 else int_of_float (Float.ceil (sqrt (float_of_int k))) in
  let group_size = if k = 0 then 0 else (k + group_count - 1) / group_count in
  (* Group state on flat arrays.  [order] holds instance indices group by
     group; group [g]'s undecided instances are [order.(lo.(g))] to
     [order.(lo.(g) + live.(g) - 1)], compacted in place (order kept) as
     instances settle.  [act.(0 .. !nact - 1)] are the gids in play,
     ascending; [cand] collects the clean groups of a tag round.  A
     verdict byte is ['\001'] once its instance is declared equal. *)
  let order = Array.init k Fun.id in
  let lo = Array.init group_count (fun g -> g * group_size) in
  let live = Array.init group_count (fun g -> Int.max 0 (Int.min group_size (k - (g * group_size)))) in
  let act = Array.make group_count 0 and nact = ref 0 in
  let cand = Array.make group_count 0 in
  let equal = Bytes.make k '\000' in
  (* Both parties make the same tag draws from the shared rng and the
     same label coordinates.  The label is folded incrementally into
     one derivation cell reused for every tag of the run ([Rng.Label]
     hashes fragment by fragment, bit-identical to hashing the
     concatenated string), so labelling a tag builds no string and
     allocates nothing; the fused [Strhash.draw_*] then draw straight
     from the cell and apply the tag without building a generator or a
     [Strhash.fn].  A group's tags in one round share the prefix
     "eqb/g<gid>/t<iteration>/i": it is hashed once, marked, and rewound
     to per instance. *)
  let cell = Prng.Rng.Label.start rng in
  let mark_group g iteration =
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "eqb/g";
    Prng.Rng.Label.add_int cell g;
    Prng.Rng.Label.add cell "/t";
    Prng.Rng.Label.add_int cell iteration;
    Prng.Rng.Label.add cell "/i";
    Prng.Rng.Label.mark cell
  in
  let instance_label idx =
    Prng.Rng.Label.rewind cell;
    Prng.Rng.Label.add_int cell idx;
    cell
  in
  let joint_label g iteration =
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "eqb/joint/g";
    Prng.Rng.Label.add_int cell g;
    Prng.Rng.Label.add cell "/t";
    Prng.Rng.Label.add_int cell iteration;
    cell
  in
  (* Group [g]'s undecided strings, each with its gamma-coded length:
     the joint test's payload and the exact round's message. *)
  let write_group buf g =
    for j = lo.(g) to lo.(g) + live.(g) - 1 do
      let x = instances.(order.(j)) in
      Bitio.Codes.write_gamma buf (Bitio.Bits.length x);
      Bitio.Bitbuf.append buf x
    done
  in
  let live_count () =
    let n = ref 0 in
    for a = 0 to !nact - 1 do
      n := !n + live.(act.(a))
    done;
    !n
  in
  (* Drop the groups with nothing left from [act], order kept. *)
  let compact () =
    let kept = ref 0 in
    for a = 0 to !nact - 1 do
      if live.(act.(a)) > 0 then begin
        act.(!kept) <- act.(a);
        incr kept
      end
    done;
    nact := !kept
  in
  (* One tag round over the live ranges of the groups in play: Alice
     ships a [bits]-wide tag per undecided instance, Bob replies with the
     bitmap of positions whose tags differ from his own.  Each round
     returns that reply, which both parties read in place. *)
  let tag_round ~iteration ~bits =
    match role with
    | Alice ->
        chan.send
          (Bitio.Pool.payload (fun buf ->
               for a = 0 to !nact - 1 do
                 let g = act.(a) in
                 mark_group g iteration;
                 for j = lo.(g) to lo.(g) + live.(g) - 1 do
                   let idx = order.(j) in
                   Strhash.draw_write (instance_label idx) ~bits buf instances.(idx)
                 done
               done));
        chan.recv ()
    | Bob ->
        Bitio.Pool.with_reader (chan.recv ()) (fun reader ->
            let width = live_count () in
            send_reply chan (fun buf ->
                let p = ref 0 and word = ref 0 in
                for a = 0 to !nact - 1 do
                  let g = act.(a) in
                  mark_group g iteration;
                  for j = lo.(g) to lo.(g) + live.(g) - 1 do
                    let idx = order.(j) in
                    let matches =
                      Strhash.draw_matches (instance_label idx) ~bits reader instances.(idx)
                    in
                    word := add_flag buf ~width !p !word (not matches);
                    incr p
                  done
                done))
  in
  (* Settle a tag round: mismatching instances leave their group's range
     (unequal, with certainty); a group that lost none is a joint-test
     candidate.  Returns the candidate count. *)
  let settle reply =
    let width = live_count () in
    let p = ref 0 and ncand = ref 0 in
    for a = 0 to !nact - 1 do
      let g = act.(a) in
      let first = lo.(g) and n = live.(g) in
      let kept = ref first in
      for j = first to first + n - 1 do
        if not (Wire.bitmap_flag reply ~width !p) then begin
          order.(!kept) <- order.(j);
          incr kept
        end;
        incr p
      done;
      live.(g) <- !kept - first;
      if live.(g) = n then begin
        cand.(!ncand) <- g;
        incr ncand
      end
    done;
    compact ();
    !ncand
  in
  (* Joint test of the candidates: one [jbits]-wide tag of each group's
     length-prefixed strings, assembled in a scratch writer and hashed
     through its zero-copy view.  Returns Bob's mismatch bitmap. *)
  let joint_round ~iteration ncand =
    let with_payload g f =
      Bitio.Pool.with_buf (fun tmp ->
          write_group tmp g;
          f (joint_label g iteration) (Bitio.Bitbuf.view tmp))
    in
    match role with
    | Alice ->
        chan.send
          (Bitio.Pool.payload (fun buf ->
               for c = 0 to ncand - 1 do
                 with_payload cand.(c) (fun label payload ->
                     Strhash.draw_write label ~bits:jbits buf payload)
               done));
        chan.recv ()
    | Bob ->
        Bitio.Pool.with_reader (chan.recv ()) (fun reader ->
            send_reply chan (fun buf ->
                let word = ref 0 in
                for c = 0 to ncand - 1 do
                  word :=
                    add_flag buf ~width:ncand c !word
                      (with_payload cand.(c) (fun label payload ->
                           not (Strhash.draw_matches label ~bits:jbits reader payload)))
                done))
  in
  let declare_equal g =
    for j = lo.(g) to lo.(g) + live.(g) - 1 do
      Bytes.set equal order.(j) '\001'
    done;
    live.(g) <- 0
  in
  (* Unconditional-termination fallback: exchange the remaining strings. *)
  let exact_round () =
    let n = live_count () in
    Obsv.Metrics.incr "eq/exact_fallbacks";
    Obsv.Metrics.incr ~by:n "eq/exact_instances";
    let reply =
      match role with
      | Alice ->
          chan.send
            (Bitio.Pool.payload (fun buf ->
                 for a = 0 to !nact - 1 do
                   write_group buf act.(a)
                 done));
          chan.recv ()
      | Bob ->
          Bitio.Pool.with_reader (chan.recv ()) (fun reader ->
              send_reply chan (fun buf ->
                  let p = ref 0 and word = ref 0 in
                  for a = 0 to !nact - 1 do
                    let g = act.(a) in
                    for j = lo.(g) to lo.(g) + live.(g) - 1 do
                      let len = Bitio.Codes.read_gamma reader in
                      let theirs = Bitio.Bitreader.read_blob reader ~bits:len in
                      word :=
                        add_flag buf ~width:n !p !word
                          (not (Bitio.Bits.equal theirs instances.(order.(j))));
                      incr p
                    done
                  done))
    in
    let p = ref 0 in
    for a = 0 to !nact - 1 do
      let g = act.(a) in
      for j = lo.(g) to lo.(g) + live.(g) - 1 do
        if not (Wire.bitmap_flag reply ~width:n !p) then Bytes.set equal order.(j) '\001';
        incr p
      done
    done;
    nact := 0
  in
  (* Drive the groups in [act] until every instance is settled. *)
  let process () =
    let iteration = ref 0 in
    while !nact > 0 do
      if !iteration >= max_iterations then Obsv.Trace.span Obsv.Phases.Eq_exact exact_round
      else begin
        let bits = Int.min 32 (2 lsl !iteration) in
        Obsv.Metrics.incr "eq/tag_rounds";
        Obsv.Metrics.observe "eq/tag_bits" bits;
        let reply =
          Obsv.Trace.span Obsv.Phases.Eq_tags (fun () -> tag_round ~iteration:!iteration ~bits)
        in
        let ncand = settle reply in
        if ncand > 0 then begin
          Obsv.Metrics.incr "eq/joint_checks";
          (* [mismatch = false] means the joint tags agreed: declare equal. *)
          let reply =
            Obsv.Trace.span Obsv.Phases.Eq_joint (fun () -> joint_round ~iteration:!iteration ncand)
          in
          for c = 0 to ncand - 1 do
            if not (Wire.bitmap_flag reply ~width:ncand c) then declare_equal cand.(c)
          done;
          compact ()
        end;
        incr iteration
      end
    done
  in
  (* Sequential runs process each non-empty group alone (the FKNN
     schedule); pipelined runs put them all in play, then process once. *)
  for g = 0 to group_count - 1 do
    if live.(g) > 0 then begin
      act.(!nact) <- g;
      incr nact;
      if sequential then process ()
    end
  done;
  process ();
  Array.init k (fun i -> Bytes.get equal i = '\001')

let run_alice ?sequential ?max_iterations rng chan xs =
  run ?sequential ?max_iterations Alice rng chan xs

let run_bob ?sequential ?max_iterations rng chan ys =
  run ?sequential ?max_iterations Bob rng chan ys
