type layout = Uniform of { count : int; width : int } | Ranges of int array

let joint_bits ~k =
  let k = Int.max 1 k in
  int_of_float (Float.ceil (sqrt (float_of_int k))) + (2 * Iterated_log.log2_ceil (k + 2)) + 8

(* After this many tag iterations (probability ~2^-(2+4+8+...) per instance of
   getting here) the remaining strings are exchanged verbatim. *)
let default_max_iterations = 40

(* Instance [i]'s bits in the table: [stride >= 0] for a uniform layout,
   else [off]'s ranges. *)
let[@inline] range_pos ~stride off i = if stride >= 0 then i * stride else Array.unsafe_get off i

let[@inline] range_len ~stride off i =
  if stride >= 0 then stride else Array.unsafe_get off (i + 1) - Array.unsafe_get off i

(* The instance count and the [stride]/[off] pair the range reads take,
   after one check that every range lies inside [table]. *)
let check_layout table = function
  | Uniform { count; width } ->
      if count < 0 || width < 0 || count * width > Bitio.Bits.length table then
        invalid_arg "Eq_batch.run_table: layout";
      (count, width, [||])
  | Ranges off ->
      let k = Array.length off - 1 in
      if k < 0 || off.(0) < 0 || off.(k) > Bitio.Bits.length table then
        invalid_arg "Eq_batch.run_table: layout";
      for i = 0 to k - 1 do
        if off.(i + 1) < off.(i) then invalid_arg "Eq_batch.run_table: layout"
      done;
      (k, -1, off)

(* Bob's verdicts go straight into his reply, a word at a time: verdict
   [p] of [width] joins [word], and a word is written out once its last
   flag is in.  Returns the word to carry on with.  A verdict is as good
   as a coin flip to the branch predictor, so its bit is multiplied in
   rather than tested. *)
let[@inline] add_flag buf ~width p word mismatch =
  let word = word lor (Bool.to_int mismatch * Wire.bitmap_bit p) in
  let first = p - (p mod Wire.bitmap_word) in
  if p + 1 = width || p + 1 = first + Wire.bitmap_word then begin
    Wire.write_bitmap_word buf ~width ~first word;
    0
  end
  else word

(* A run's group state, borrowed from a per-domain freelist and grown to
   each run: [order] holds at least k cells (one per instance), the
   others at least one per group, [jstart] one more, and [scratch] is
   the run's writer for joint payloads.  See [run_core] for what each
   holds. *)
type workspace = {
  mutable order : int array;
  mutable lo : int array;
  mutable live : int array;
  mutable act : int array;
  mutable cand : int array;
  mutable jstart : int array;
  scratch : Bitio.Bitbuf.t;
}

let workspaces =
  Bitio.Pool.freelist (fun () ->
      { order = [||]; lo = [||]; live = [||]; act = [||]; cand = [||]; jstart = [||];
        scratch = Bitio.Bitbuf.create ~capacity:1024 () })

(* The bucket protocol's instance count is heavy-tailed (26 000 bucket
   k=1024 runs at one seed needed about 1 500 each, and once 16 828), so
   a large [order] is also replaced when it holds over four times this
   run's need.  Kept at the largest count ever seen, it held the peak
   major heap of those runs up to 12% above the unpooled code's, against
   at most 3% once it tracks recent runs.  Below [order_kept] cells it is
   kept whatever the need: replacing it there saves nothing, and small-k
   sweeps, whose batches range over 4x and more, would replace it at
   every other run. *)
let order_kept = 4096

let fit ws ~k ~groups =
  let have = Array.length ws.order in
  if have < k || have > Int.max order_kept (4 * k) then ws.order <- Array.make k 0;
  if Array.length ws.lo < groups then begin
    ws.lo <- Array.make groups 0;
    ws.live <- Array.make groups 0;
    ws.act <- Array.make groups 0;
    ws.cand <- Array.make groups 0;
    ws.jstart <- Array.make (groups + 1) 0
  end

(* The core, over a packed table, in a workspace borrowed for the whole
   run.  Every closure below is built once per run: a round reads its
   iteration, tag width and candidate count from the cells [iteration],
   [bits] and [ncand], so driving a round allocates nothing but its
   payloads. *)
let run_core ~sequential ~max_iterations role rng (chan : Commsim.Transport.t) table layout ws =
  let alice = match role with `Alice -> true | `Bob -> false in
  let k, stride, off = check_layout table layout in
  let jbits = joint_bits ~k in
  let group_count = if k = 0 then 0 else int_of_float (Float.ceil (sqrt (float_of_int k))) in
  let group_size = if k = 0 then 0 else (k + group_count - 1) / group_count in
  (* Group state on flat arrays, in the workspace.  [order] holds
     instance indices group by group; group [g]'s undecided instances are
     [order.(lo.(g))] to [order.(lo.(g) + live.(g) - 1)], compacted in
     place (order kept) as instances settle.  [act.(0 .. !nact - 1)] are
     the gids in play, ascending; [cand] collects the clean groups of a
     tag round and [jstart] where each one's joint payload lies in
     [scratch].  [order], [lo] and [live] are filled here, the others
     written before they are read.  A verdict byte is ['\001'] once its
     instance is declared equal. *)
  fit ws ~k ~groups:group_count;
  let { order; lo; live; act; cand; jstart; scratch } = ws in
  for i = 0 to k - 1 do
    order.(i) <- i
  done;
  for g = 0 to group_count - 1 do
    lo.(g) <- g * group_size;
    live.(g) <- Int.max 0 (Int.min group_size (k - (g * group_size)))
  done;
  let nact = ref 0 and ncand = ref 0 in
  let equal = Bytes.make k '\000' in
  let iteration = ref 0 and bits = ref 0 in
  (* Bob reads each message of Alice's through this one reader. *)
  let reader = Bitio.Bitreader.create Bitio.Bits.empty in
  (* Both parties make the same tag draws from the shared rng and the
     same label coordinates.  The label is folded incrementally into
     one derivation cell reused for every tag of the run ([Rng.Label]
     hashes fragment by fragment, bit-identical to hashing the
     concatenated string), so labelling a tag builds no string and
     allocates nothing; the fused [Strhash.draw_*_range] then draw
     straight from the cell and tag an instance's range of the table in
     place.  A group's tags in one round share the prefix
     "eqb/g<gid>/t<iteration>/i": it is hashed once and marked, and
     [Label.index] adds each instance's digits to it, folding only the
     last one while the instances' tens stay the same. *)
  let cell = Prng.Rng.Label.start rng in
  let mark_group g =
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "eqb/g";
    Prng.Rng.Label.add_int cell g;
    Prng.Rng.Label.add cell "/t";
    Prng.Rng.Label.add_int cell !iteration;
    Prng.Rng.Label.add cell "/i";
    Prng.Rng.Label.mark cell
  in
  let instance_label idx =
    Prng.Rng.Label.index cell idx;
    cell
  in
  let joint_label g =
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "eqb/joint/g";
    Prng.Rng.Label.add_int cell g;
    Prng.Rng.Label.add cell "/t";
    Prng.Rng.Label.add_int cell !iteration;
    cell
  in
  (* Group [g]'s undecided strings, each with its gamma-coded length:
     the joint test's payload and the exact round's message. *)
  let write_group buf g =
    for j = lo.(g) to lo.(g) + live.(g) - 1 do
      let i = order.(j) in
      let len = range_len ~stride off i in
      Bitio.Codes.write_gamma buf len;
      Bitio.Bitbuf.append_range buf table ~pos:(range_pos ~stride off i) ~len
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
  (* One round trip: Alice sends what [alice_write] writes and receives
     Bob's verdict bitmap; Bob reads her message through [reader] and
     sends back, and keeps, what [bob_write] writes.  Both return the
     bitmap, which they read in place. *)
  let exchange alice_write bob_write =
    if alice then begin
      chan.send (Bitio.Pool.payload alice_write);
      chan.recv ()
    end
    else begin
      Bitio.Bitreader.reset reader (chan.recv ());
      let reply = Bitio.Pool.payload bob_write in
      chan.send reply;
      reply
    end
  in
  (* A tag round over the live ranges of the groups in play: Alice ships
     a [bits]-wide tag per undecided instance, Bob flags the positions
     whose tags differ from his own. *)
  let write_tags buf =
    for a = 0 to !nact - 1 do
      let g = act.(a) in
      mark_group g;
      for j = lo.(g) to lo.(g) + live.(g) - 1 do
        let i = order.(j) in
        Strhash.draw_write_range (instance_label i) ~bits:!bits buf table
          ~pos:(range_pos ~stride off i) ~len:(range_len ~stride off i)
      done
    done
  in
  let write_tag_flags buf =
    let width = live_count () in
    let p = ref 0 and word = ref 0 in
    for a = 0 to !nact - 1 do
      let g = act.(a) in
      mark_group g;
      for j = lo.(g) to lo.(g) + live.(g) - 1 do
        let i = order.(j) in
        let matches =
          Strhash.draw_matches_range (instance_label i) ~bits:!bits reader table
            ~pos:(range_pos ~stride off i) ~len:(range_len ~stride off i)
        in
        word := add_flag buf ~width !p !word (not matches);
        incr p
      done
    done
  in
  let tag_round () = exchange write_tags write_tag_flags in
  (* Settle a tag round: mismatching instances leave their group's range
     (unequal, with certainty); a group that lost none is a joint-test
     candidate, counted in [ncand].  Every instance is written to the
     next kept slot and the slot advances by its keep bit, so the
     compaction does not branch on the verdicts. *)
  let settle reply =
    let width = live_count () in
    let p = ref 0 in
    ncand := 0;
    for a = 0 to !nact - 1 do
      let g = act.(a) in
      let first = lo.(g) and n = live.(g) in
      let kept = ref first in
      for j = first to first + n - 1 do
        order.(!kept) <- order.(j);
        kept := !kept + 1 - Bool.to_int (Wire.bitmap_flag reply ~width !p);
        incr p
      done;
      live.(g) <- !kept - first;
      if live.(g) = n then begin
        cand.(!ncand) <- g;
        incr ncand
      end
    done;
    compact ()
  in
  (* Joint test of the candidates: one [jbits]-wide tag of each group's
     length-prefixed strings.  They are assembled one after another in
     [scratch], candidate [c] at [jstart.(c)], and tagged as ranges of
     one zero-copy view. *)
  let joint_payloads () =
    Bitio.Bitbuf.reset scratch;
    for c = 0 to !ncand - 1 do
      jstart.(c) <- Bitio.Bitbuf.length scratch;
      write_group scratch cand.(c)
    done;
    jstart.(!ncand) <- Bitio.Bitbuf.length scratch;
    Bitio.Bitbuf.view scratch
  in
  let write_joint buf =
    let payloads = joint_payloads () in
    for c = 0 to !ncand - 1 do
      Strhash.draw_write_range (joint_label cand.(c)) ~bits:jbits buf payloads ~pos:jstart.(c)
        ~len:(jstart.(c + 1) - jstart.(c))
    done
  in
  let write_joint_flags buf =
    let payloads = joint_payloads () in
    let word = ref 0 in
    for c = 0 to !ncand - 1 do
      let matches =
        Strhash.draw_matches_range (joint_label cand.(c)) ~bits:jbits reader payloads
          ~pos:jstart.(c) ~len:(jstart.(c + 1) - jstart.(c))
      in
      word := add_flag buf ~width:!ncand c !word (not matches)
    done
  in
  let joint_round () = exchange write_joint write_joint_flags in
  let declare_equal g =
    for j = lo.(g) to lo.(g) + live.(g) - 1 do
      Bytes.set equal order.(j) '\001'
    done;
    live.(g) <- 0
  in
  (* Unconditional-termination fallback: exchange the remaining strings.
     Bob compares each against his range of the table as he reads it. *)
  let write_exact buf =
    for a = 0 to !nact - 1 do
      write_group buf act.(a)
    done
  in
  let write_exact_flags buf =
    let width = live_count () in
    let p = ref 0 and word = ref 0 in
    for a = 0 to !nact - 1 do
      let g = act.(a) in
      for j = lo.(g) to lo.(g) + live.(g) - 1 do
        let i = order.(j) in
        let theirs = Bitio.Codes.read_gamma reader in
        let same =
          Bitio.Bitreader.read_matches reader ~bits:theirs table ~pos:(range_pos ~stride off i)
            ~len:(range_len ~stride off i)
        in
        word := add_flag buf ~width !p !word (not same);
        incr p
      done
    done
  in
  let exact_round () =
    let n = live_count () in
    Obsv.Metrics.incr "eq/exact_fallbacks";
    Obsv.Metrics.incr ~by:n "eq/exact_instances";
    let reply = exchange write_exact write_exact_flags in
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
    iteration := 0;
    while !nact > 0 do
      if !iteration >= max_iterations then Obsv.Trace.span Obsv.Phases.Eq_exact exact_round
      else begin
        bits := Int.min 32 (2 lsl !iteration);
        Obsv.Metrics.incr "eq/tag_rounds";
        Obsv.Metrics.observe "eq/tag_bits" !bits;
        settle (Obsv.Trace.span Obsv.Phases.Eq_tags tag_round);
        if !ncand > 0 then begin
          Obsv.Metrics.incr "eq/joint_checks";
          (* A clear flag means the joint tags agreed: declare equal. *)
          let reply = Obsv.Trace.span Obsv.Phases.Eq_joint joint_round in
          for c = 0 to !ncand - 1 do
            if not (Wire.bitmap_flag reply ~width:!ncand c) then declare_equal cand.(c)
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
  equal

let run_table ?(sequential = true) ?(max_iterations = default_max_iterations) role rng chan table
    layout =
  Bitio.Pool.using workspaces (run_core ~sequential ~max_iterations role rng chan table layout)

(* Pack the instances into one table, back to back, and unpack the
   verdict bytes. *)
let run_array ?sequential ?max_iterations role rng chan instances =
  let k = Array.length instances in
  let off = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    off.(i + 1) <- off.(i) + Bitio.Bits.length instances.(i)
  done;
  let equal =
    Bitio.Pool.with_buf (fun buf ->
        Array.iter (Bitio.Bitbuf.append buf) instances;
        run_table ?sequential ?max_iterations role rng chan (Bitio.Bitbuf.view buf) (Ranges off))
  in
  Array.init k (fun i -> Bytes.get equal i <> '\000')

let run_alice ?sequential ?max_iterations rng chan xs =
  run_array ?sequential ?max_iterations `Alice rng chan xs

let run_bob ?sequential ?max_iterations rng chan ys =
  run_array ?sequential ?max_iterations `Bob rng chan ys
