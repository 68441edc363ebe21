(* Kernel timings: public Bitio, Eq_batch, Hashing and Strhash entry points
   called directly on a workload's own sets.  Each kernel's decode or
   verdict is checked once, so a fast-but-wrong kernel cannot pass. *)

open Timing

(* [per_unit ~budget_ns pass] runs [pass] (which returns the number of
   units it processed) at least three times and until [budget_ns] is spent,
   and reports the median over passes of ns per unit. *)
let per_unit ~budget_ns pass =
  let samples = ref [] and spent = ref 0 and passes = ref 0 in
  while !passes < 3 || !spent < budget_ns do
    let t0 = now () in
    let units = pass () in
    let dt = now () - t0 in
    spent := !spent + dt;
    incr passes;
    samples := (float_of_int dt /. float_of_int (max 1 units)) :: !samples
  done;
  median (Array.of_list !samples)

let elements sets = Array.fold_left (fun n s -> n + Array.length s) 0 sets

let encode_gaps s = Bitio.Pool.payload (fun buf -> Bitio.Set_codec.write_gaps buf s)

(* About 6k instances of 30-bit strings, one in twelve (512) equal. *)
let eq_instances = 6144

let eq_inputs sets =
  let all = Array.concat (Array.to_list sets) in
  let word i = ((all.(i mod Array.length all) * 6151) + i) land ((1 lsl 30) - 1) in
  let encode v = Bitio.Pool.payload (fun buf -> Bitio.Bitbuf.write_bits buf ~width:30 v) in
  let equal i = i mod 12 = 0 in
  let xs = Array.init eq_instances (fun i -> encode (word i)) in
  let differ i = encode (word i lxor (1 + (i land 0xfff))) in
  let ys = Array.init eq_instances (fun i -> if equal i then xs.(i) else differ i) in
  (xs, ys, equal)

(* Returns the kernel metrics and the number of wrong decodes or verdicts. *)
let run ~sets ~universe ~k ~budget_ns =
  let budget_ns = budget_ns / 6 in
  let errors = ref 0 in
  let n = elements sets in
  let buf = Bitio.Bitbuf.create () in
  let gaps_write =
    per_unit ~budget_ns (fun () ->
        Array.iter
          (fun s ->
            Bitio.Bitbuf.reset buf;
            Bitio.Set_codec.write_gaps buf s)
          sets;
        n)
  in
  let encoded = Array.map encode_gaps sets in
  Array.iteri
    (fun i e ->
      if Bitio.Set_codec.read_gaps (Bitio.Bitreader.create e) <> sets.(i) then incr errors)
    encoded;
  let gaps_read =
    per_unit ~budget_ns (fun () ->
        Array.iter
          (fun e ->
            ignore (Sys.opaque_identity (Bitio.Set_codec.read_gaps (Bitio.Bitreader.create e))))
          encoded;
        n)
  in
  let gamma_rw =
    per_unit ~budget_ns (fun () ->
        Array.iter
          (fun s ->
            let gap i = if i = 0 then s.(0) else s.(i) - s.(i - 1) in
            Bitio.Bitbuf.reset buf;
            Array.iteri (fun i _ -> Bitio.Codes.write_gamma buf (gap i)) s;
            let reader = Bitio.Bitreader.of_bitbuf buf in
            Array.iteri (fun i _ -> if Bitio.Codes.read_gamma reader <> gap i then incr errors) s)
          sets;
        n)
  in
  let xs, ys, equal = eq_inputs sets in
  let root = Prng.Rng.of_int k in
  let pass = ref 0 in
  let eq_batch =
    per_unit ~budget_ns (fun () ->
        incr pass;
        let label = "perf/eq-batch/" ^ string_of_int !pass in
        let (verdicts, _), _ =
          Commsim.Two_party.run
            ~alice:(fun chan ->
              Intersect.Eq_batch.run_alice (Prng.Rng.with_label root label) chan xs)
            ~bob:(fun chan -> Intersect.Eq_batch.run_bob (Prng.Rng.with_label root label) chan ys)
        in
        Array.iteri (fun i v -> if equal i && not v then incr errors) verdicts;
        eq_instances)
  in
  let cw = Hashing.Carter_wegman.create (Prng.Rng.with_label root "perf/cw") ~universe ~range:k in
  let cw_hash =
    per_unit ~budget_ns (fun () ->
        let acc = ref 0 in
        Array.iter (Array.iter (fun x -> acc := !acc lxor Hashing.Carter_wegman.hash cw x)) sets;
        ignore (Sys.opaque_identity !acc);
        n)
  in
  let fn = Intersect.Strhash.create (Prng.Rng.with_label root "perf/strhash") ~bits:32 in
  let strhash =
    per_unit ~budget_ns (fun () ->
        Array.iter
          (fun s ->
            Bitio.Bitbuf.reset buf;
            Array.iter (Intersect.Strhash.write_int fn buf) s)
          sets;
        n)
  in
  ( [
      ("bitio.gaps_write_ns_per_elem", gaps_write);
      ("bitio.gaps_read_ns_per_elem", gaps_read);
      ("bitio.gamma_rw_ns_per_code", gamma_rw);
      ("eq_batch.ns_per_instance", eq_batch);
      ("hashing.cw_hash_ns", cw_hash);
      ("strhash.write_int_ns", strhash);
    ],
    !errors )
