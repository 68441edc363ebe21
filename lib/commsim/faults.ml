type link = { flip : float; trunc : float; dup : float; drop : float }

let clean_link = { flip = 0.0; trunc = 0.0; dup = 0.0; drop = 0.0 }
let flipping p = { clean_link with flip = p }
let dropping p = { clean_link with drop = p }

let validate_link { flip; trunc; dup; drop } =
  let check name p =
    if not (p >= 0.0 && p <= 1.0) then invalid_arg ("Faults: " ^ name ^ " rate outside [0, 1]")
  in
  check "flip" flip;
  check "trunc" trunc;
  check "dup" dup;
  check "drop" drop

type plan = { seed_ : int; pick : from_:int -> to_:int -> link; clean_ : bool }

let clean = { seed_ = 0; pick = (fun ~from_:_ ~to_:_ -> clean_link); clean_ = true }

let uniform ~seed link =
  validate_link link;
  if link = clean_link then { clean with seed_ = seed }
  else { seed_ = seed; pick = (fun ~from_:_ ~to_:_ -> link); clean_ = false }

let is_clean plan = plan.clean_
let seed plan = plan.seed_

let reseed plan ~salt =
  if plan.clean_ then plan
  else
    { plan with seed_ = Prng.Rng.bits (Prng.Rng.with_label (Prng.Rng.of_int plan.seed_) (Printf.sprintf "reseed/%d" salt)) ~width:30 }

type action = Deliver of Bitio.Bits.t list | Drop

(* Mutable so {!apply} records each message's damage in the run's own
   tallies in place; the interface exports the type private, so no other
   module can write a tally. *)
type tally = {
  mutable deliveries : int;
  mutable flipped_messages : int;
  mutable flipped_bits : int;
  mutable truncated_messages : int;
  mutable truncated_bits : int;
  mutable duplicated_messages : int;
  mutable dropped_messages : int;
  mutable dropped_bits : int;
}

let zero_tally () =
  {
    deliveries = 0;
    flipped_messages = 0;
    flipped_bits = 0;
    truncated_messages = 0;
    truncated_bits = 0;
    duplicated_messages = 0;
    dropped_messages = 0;
    dropped_bits = 0;
  }

let add_tally a b =
  {
    deliveries = a.deliveries + b.deliveries;
    flipped_messages = a.flipped_messages + b.flipped_messages;
    flipped_bits = a.flipped_bits + b.flipped_bits;
    truncated_messages = a.truncated_messages + b.truncated_messages;
    truncated_bits = a.truncated_bits + b.truncated_bits;
    duplicated_messages = a.duplicated_messages + b.duplicated_messages;
    dropped_messages = a.dropped_messages + b.dropped_messages;
    dropped_bits = a.dropped_bits + b.dropped_bits;
  }

type tallies = { links : tally array array }

let tallies_of ~players cell =
  if players < 1 then invalid_arg "Faults.create_tallies";
  { links = Array.init players (fun _ -> Array.init players cell) }

(* Only [apply] writes a tally, and only into its channel's tallies, so
   every other all-zero tallies can share one record between its cells. *)
let create_tallies ~players =
  let zero = zero_tally () in
  tallies_of ~players (fun _ -> zero)

let total t =
  Array.fold_left (fun acc row -> Array.fold_left add_tally acc row) (zero_tally ()) t.links

let merge a b =
  if Array.length a.links <> Array.length b.links then invalid_arg "Faults.merge: player counts";
  { links = Array.map2 (Array.map2 add_tally) a.links b.links }

(* One execution's view of a plan: the tallies it records into and a label
   cell over the plan's seed, whose mark sits after ["faults/"]. *)
type channel = { plan : plan; label : Prng.Rng.Label.d; tallies : tallies }

let channel plan ~players =
  let label = Prng.Rng.Label.start (Prng.Rng.of_int plan.seed_) in
  Prng.Rng.Label.add label "faults/";
  Prng.Rng.Label.mark label;
  { plan; label; tallies = tallies_of ~players (fun _ -> zero_tally ()) }

let tallies c = c.tallies

let truncate payload ~keep = Bitio.Bitreader.read_blob (Bitio.Bitreader.create payload) ~bits:keep

(* One Bernoulli decision per bit index, in order — the same draw sequence
   as the historical per-bit loop — run as scans that stop at each flip
   and resume after it, so exactly [length payload] draws are consumed.
   Damage is applied by xor on a single byte copy taken only once a flip
   actually lands. *)
let flip_bits rng ~threshold tally payload =
  let n = Bitio.Bits.length payload in
  let first = Prng.Rng.scan_below rng ~threshold ~limit:n in
  if first = n then payload
  else begin
    let data = Bytes.sub (Bitio.Bits.bytes payload) 0 ((n + 7) / 8) in
    let i = ref first and flipped = ref 0 in
    while !i < n do
      let j = !i lsr 3 in
      Bytes.set data j (Char.chr (Char.code (Bytes.get data j) lxor (1 lsl (!i land 7))));
      incr flipped;
      i := !i + 1 + Prng.Rng.scan_below rng ~threshold ~limit:(n - !i - 1)
    done;
    tally.flipped_messages <- tally.flipped_messages + 1;
    tally.flipped_bits <- tally.flipped_bits + !flipped;
    Bitio.Bits.unsafe_of_bytes data ~length:n
  end

(* One Bernoulli decision, drawn only for a positive rate. *)
let decide rng p = p > 0.0 && Prng.Rng.below rng (Prng.Rng.threshold ~p)

let apply c ~from_ ~to_ ~index payload =
  let tally = c.tallies.links.(from_).(to_) in
  if c.plan.clean_ then begin
    tally.deliveries <- tally.deliveries + 1;
    Deliver [ payload ]
  end
  else begin
    let link = c.plan.pick ~from_ ~to_ in
    validate_link link;
    let len = Bitio.Bits.length payload in
    (* One fresh generator per message coordinate: the draw sequence below is
       fixed, so the decision depends on nothing but (seed, link, index).
       The label is "faults/<from>-><to>/<index>", fed to the cell without
       building the string. *)
    let d = c.label in
    Prng.Rng.Label.rewind d;
    Prng.Rng.Label.add_int d from_;
    Prng.Rng.Label.add d "->";
    Prng.Rng.Label.add_int d to_;
    Prng.Rng.Label.add_char d '/';
    Prng.Rng.Label.add_int d index;
    let rng = Prng.Rng.Label.finish d in
    if decide rng link.drop then begin
      tally.dropped_messages <- tally.dropped_messages + 1;
      tally.dropped_bits <- tally.dropped_bits + len;
      Drop
    end
    else begin
      let payload =
        if len > 0 && decide rng link.trunc then begin
          let keep = Prng.Rng.int rng len in
          tally.truncated_messages <- tally.truncated_messages + 1;
          tally.truncated_bits <- tally.truncated_bits + (len - keep);
          truncate payload ~keep
        end
        else payload
      in
      let payload =
        if link.flip > 0.0 then
          flip_bits rng ~threshold:(Prng.Rng.threshold ~p:link.flip) tally payload
        else payload
      in
      if decide rng link.dup then begin
        tally.duplicated_messages <- tally.duplicated_messages + 1;
        tally.deliveries <- tally.deliveries + 2;
        Deliver [ payload; payload ]
      end
      else begin
        tally.deliveries <- tally.deliveries + 1;
        Deliver [ payload ]
      end
    end
  end

module For_testing = struct
  let make ~seed pick = { seed_ = seed; pick; clean_ = false }
end
