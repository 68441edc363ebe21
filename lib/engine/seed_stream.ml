(* The base generator is built once at stream creation; a trial derivation
   is then one incremental label fold ([Rng.Label]) over
   ["<label>/trial<i>"] — bit-identical to
   [Rng.with_label (Rng.of_int base) (sprintf "%s/trial%d" label i)], the
   historical formulation, without the sprintf or the per-trial base
   rebuild.  Pure function of [(base, label, i)] either way. *)
type t = { label : string; root : Prng.Rng.t }

let create ~base ~label = { label; root = Prng.Rng.of_int base }

let trial_rng t i =
  let d = Prng.Rng.Label.start t.root in
  Prng.Rng.Label.add d t.label;
  Prng.Rng.Label.add d "/trial";
  Prng.Rng.Label.add_int d i;
  Prng.Rng.Label.finish d
