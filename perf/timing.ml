(* Clock reads and the order statistics every metric is reduced with. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_of_ns ns = float_of_int ns /. 1e9

(* A growable int vector for per-op samples.  It lives outside the OCaml
   heap (a Bigarray), so the samples neither allocate in the timed loop nor
   count towards the heap peak the benchmark reports. *)
module Vec = struct
  open Bigarray

  type t = { mutable data : (int, int_elt, c_layout) Array1.t; mutable len : int }

  let create () = { data = Array1.create int c_layout (1 lsl 18); len = 0 }

  let push v x =
    if v.len = Array1.dim v.data then begin
      let bigger = Array1.create int c_layout (2 * v.len) in
      Array1.blit v.data (Array1.sub bigger 0 v.len);
      v.data <- bigger
    end;
    Array1.unsafe_set v.data v.len x;
    v.len <- v.len + 1

  let length v = v.len
  let get v i = v.data.{i}
  let to_floats v = Array.init v.len (fun i -> float_of_int v.data.{i})
end

(* The reference: fixed work in the benchmark's own code, on its own
   off-heap tables, so that no change to the libraries can speed it up or
   slow it down.  One loop dispatches on a 32 KB table of pseudo-random
   words, as an interpreter does; the other writes 256 KB and reads it
   back, and counts twice.  Load from other tenants of a shared host slows
   this mix about as much as it slows the workloads, which allocate
   heavily: the dispatch loop alone slows less, the streaming loop alone
   more.  Each loop runs once to bring its table into the cache, and the
   second run is timed, so the time does not depend on what the workload
   left in the cache.  Returns nanoseconds; allocates nothing. *)
let reference =
  let words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 4096 in
  let state = ref 1234567 in
  for k = 0 to 4095 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    words.{k} <- !state
  done;
  let buffer = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 15) in
  let dispatch () =
    let a = ref 0 and b = ref 1 and c = ref 2 and pc = ref 0 in
    for _ = 1 to 6000 do
      let op = Bigarray.Array1.unsafe_get words !pc in
      (match op land 7 with
      | 0 -> a := !a + op
      | 1 -> b := !b lxor (op lsr 3)
      | 2 -> c := !c + (!a land 255)
      | 3 -> a := !a - !b
      | 4 -> b := !b + (op land 1023)
      | 5 -> c := !c lxor !b
      | 6 -> a := !a + Bigarray.Array1.unsafe_get words (!c land 4095)
      | _ -> b := !b + 1);
      pc := (!pc + 1 + ((op lsr 20) land 3)) land 4095
    done;
    !a + !b + !c
  in
  let stream () =
    let n = Bigarray.Array1.dim buffer in
    for k = 0 to n - 1 do
      Bigarray.Array1.unsafe_set buffer k k
    done;
    let s = ref 0 in
    for k = 0 to n - 1 do
      s := !s + Bigarray.Array1.unsafe_get buffer k
    done;
    !s
  in
  let warm f =
    ignore (Sys.opaque_identity (f ()));
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    now () - t0
  in
  fun () -> warm dispatch + (2 * warm stream)

(* The [n - 1] cut points that split [a] into [n] groups, exactly as
   Python's [statistics.quantiles(a, n=n)] (the default "exclusive" method)
   computes them, so a spread printed here matches the one an outside
   checker derives from the same values.  [a] must not be empty. *)
let quantiles ~n a =
  let len = Array.length a in
  if len = 0 then invalid_arg "Timing.quantiles: no values";
  let s = Array.copy a in
  Array.sort Float.compare s;
  if len = 1 then Array.make (n - 1) s.(0)
  else
    let m = len + 1 in
    Array.init (n - 1) (fun c ->
        let i = c + 1 in
        let j = max 1 (min (len - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta)) /. float_of_int n)

(* The median, and 0 for no values (a layer the workload never ran). *)
let median a = if Array.length a = 0 then 0.0 else (quantiles ~n:2 a).(0)

(* Inter-quartile distance as a share of the median. *)
let spread a =
  let q = quantiles ~n:4 a in
  let m = median a in
  if m = 0.0 then if q.(2) = q.(0) then 0.0 else infinity else (q.(2) -. q.(0)) /. Float.abs m
