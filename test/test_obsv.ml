(* Tests for the observability subsystem: span nesting and attribution,
   the disabled fast path, the metrics registry, deterministic exports,
   and the exact per-phase budget identity on a real protocol. *)

open Intersect
open Obsv

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let bits_of_int ~width v =
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width v;
  Bitio.Bitbuf.contents buf

(* A two-player exchange with nested spans on the sender's side: three
   messages from Alice (8, 4 and 2 bits; the middle one inside an inner
   span) and one 3-bit reply from Bob. *)
let run_spanned () =
  let collector = Trace.create () in
  let _, cost, trace =
    Trace.with_collector collector (fun () ->
        Commsim.Network.run_traced
          [|
            (fun ep ->
              Trace.span "alice/outer" (fun () ->
                  Commsim.Network.send ep ~to_:1 (bits_of_int ~width:8 42);
                  Trace.span "alice/inner" ~attrs:[ ("step", "2") ] (fun () ->
                      Commsim.Network.send ep ~to_:1 (bits_of_int ~width:4 7));
                  Commsim.Network.send ep ~to_:1 (bits_of_int ~width:2 1));
              ignore (Commsim.Network.recv ep ~from_:1));
            (fun ep ->
              ignore (Commsim.Network.recv ep ~from_:0);
              ignore (Commsim.Network.recv ep ~from_:0);
              ignore (Commsim.Network.recv ep ~from_:0);
              Trace.span "bob/reply" (fun () ->
                  Commsim.Network.send ep ~to_:0 (bits_of_int ~width:3 5)));
          |])
  in
  (collector, cost, trace)

let span_named collector name =
  match List.find_opt (fun (s : Trace.span) -> s.Trace.name = name) (Trace.spans collector) with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

let test_span_nesting () =
  let collector, _, _ = run_spanned () in
  check "three spans" 3 (List.length (Trace.spans collector));
  let outer = span_named collector "alice/outer" in
  let inner = span_named collector "alice/inner" in
  let reply = span_named collector "bob/reply" in
  check_bool "outer has no parent" true (outer.Trace.parent = None);
  check_bool "inner nests under outer" true (inner.Trace.parent = Some outer.Trace.id);
  check_bool "reply has no parent" true (reply.Trace.parent = None);
  check_bool "outer belongs to player 0" true (outer.Trace.rank = Some 0);
  check_bool "reply belongs to player 1" true (reply.Trace.rank = Some 1);
  check_bool "spans are closed" true
    (List.for_all (fun (s : Trace.span) -> s.Trace.end_seq >= 0) (Trace.spans collector));
  check_bool "inner keeps its attrs" true (inner.Trace.attrs = [ ("step", "2") ])

let test_message_attribution () =
  let collector, cost, trace = run_spanned () in
  let outer = span_named collector "alice/outer" in
  let inner = span_named collector "alice/inner" in
  let reply = span_named collector "bob/reply" in
  (* The innermost open span of the sender wins; bits accumulate where
     they were attributed, never twice. *)
  check "outer gets the 8-bit and 2-bit sends" 10 outer.Trace.bits;
  check "inner gets the 4-bit send" 4 inner.Trace.bits;
  check "reply gets the 3-bit send" 3 reply.Trace.bits;
  check "messages recorded" 4 (List.length (Trace.messages collector));
  (* The network trace carries the same attribution. *)
  let span_ids = List.map (fun e -> e.Commsim.Network.span) trace in
  check_bool "trace entries carry span ids" true
    (span_ids
    = [ Some outer.Trace.id; Some inner.Trace.id; Some outer.Trace.id; Some reply.Trace.id ]);
  (* The per-phase ledger covers the metered total exactly. *)
  check "phase bits sum to total" cost.Commsim.Cost.total_bits
    (Export.total_phase_bits collector);
  let by_phase =
    List.map (fun (p : Export.phase) -> (p.Export.phase, p.Export.bits)) (Export.phases collector)
  in
  check_bool "ledger rows" true
    (by_phase = [ ("alice/outer", 10); ("alice/inner", 4); ("bob/reply", 3) ])

let test_unattributed_messages () =
  let collector = Trace.create () in
  let _, cost, _ =
    Trace.with_collector collector (fun () ->
        Commsim.Network.run_traced
          [|
            (fun ep -> Commsim.Network.send ep ~to_:1 (bits_of_int ~width:6 33));
            (fun ep -> ignore (Commsim.Network.recv ep ~from_:0));
          |])
  in
  match Export.phases collector with
  | [ p ] ->
      check_str "phase name" Export.unattributed p.Export.phase;
      check "bits" cost.Commsim.Cost.total_bits p.Export.bits
  | phases -> Alcotest.failf "expected one phase, got %d" (List.length phases)

(* ---------- Disabled fast path ---------- *)

let test_disabled_is_ambient_default () =
  check_bool "ambient collector is the disabled one" true (Trace.current () == Trace.disabled);
  check_bool "ambient registry is the disabled one" true
    (Metrics.current () == Metrics.disabled);
  let r = Trace.span "ignored" (fun () -> 17) in
  check "span still runs its body" 17 r;
  check "nothing recorded" 0 (List.length (Trace.spans Trace.disabled));
  Metrics.incr "ignored";
  Metrics.observe "ignored" 5;
  check "metrics drop writes when disabled" 0 (Metrics.counter_value Metrics.disabled "ignored");
  check_bool "no sketch on the disabled registry" true (Metrics.sketches_list Metrics.disabled = [])

let test_disabled_span_allocates_nothing () =
  let body () = () in
  for _ = 1 to 100 do
    Trace.span "warmup" body
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Trace.span "hot" body
  done;
  let w1 = Gc.minor_words () in
  (* One load and one branch per call: allow a little slack for the
     Gc.minor_words probes themselves, nothing per-iteration. *)
  check_bool "under 100 minor words for 1000 disabled spans" true (w1 -. w0 < 100.0)

(* The measurement window.  Allocations smaller than a minor heap are
   read exactly only because both ends of the window empty it: without
   the opening collection, the garbage allocated before each window
   (a different amount each time here) would be counted; without the
   closing one, nothing allocated inside would be. *)
let window_bytes n ~junk =
  ignore (Sys.opaque_identity (Array.make junk 0));
  let _, w = Window.measure (fun () -> Sys.opaque_identity (Array.make n 0)) in
  w.Window.alloc_bytes

let test_window_bytes_exact () =
  let small = window_bytes 100 ~junk:1 and large = window_bytes 200 ~junk:1 in
  check "100 more words read as exactly 800 more bytes" 800 (large - small);
  for junk = 2 to 6 do
    check "100-word window repeats exactly" small (window_bytes 100 ~junk:(junk * 37));
    check "200-word window repeats exactly" large (window_bytes 200 ~junk:(junk * 37))
  done

let test_window_reading () =
  let v = ref 0 in
  let r, w =
    Window.measure (fun () ->
        for i = 1 to 1000 do
          v := !v + i
        done;
        v)
  in
  check_bool "result passed through unchanged" true (r == v);
  check "the function ran once" 500500 !v;
  check_bool "ns >= 0" true (w.Window.ns >= 0);
  check "no minor collection of its own" 0 w.Window.minor_collections;
  let _, w = Window.measure (fun () -> 17) in
  check_bool "ns >= 0 for an empty window" true (w.Window.ns >= 0);
  check "the window's own collections are not counted" 0 w.Window.minor_collections

let run_bucket ~collect seed =
  let universe = 1 lsl 20 in
  let body () =
    let rng = Prng.Rng.of_int seed in
    let pair =
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.with_label rng "workload")
        ~universe ~size_s:64 ~size_t:64 ~overlap:32
    in
    let protocol = Bucket_protocol.protocol ~k:64 () in
    (protocol.Protocol.run (Prng.Rng.with_label rng "run") ~universe pair.Workload.Setgen.s
       pair.Workload.Setgen.t)
      .Protocol.cost
  in
  if collect then begin
    let c = Trace.create () in
    let r = Metrics.create () in
    let cost = Trace.with_collector c (fun () -> Metrics.with_registry r body) in
    (Some (c, r), cost)
  end
  else (None, body ())

let test_tracing_does_not_perturb_cost () =
  let _, cost_plain = run_bucket ~collect:false 11 in
  let _, cost_traced = run_bucket ~collect:true 11 in
  check_bool "Cost.t identical with and without tracing" true (cost_plain = cost_traced)

let test_bucket_phase_identity () =
  let collected, cost = run_bucket ~collect:true 11 in
  let c, _ = Option.get collected in
  check "per-phase bits sum exactly to Cost.total_bits" cost.Commsim.Cost.total_bits
    (Export.total_phase_bits c);
  let messages = List.fold_left (fun n (p : Export.phase) -> n + p.Export.messages) 0 (Export.phases c) in
  check "per-phase messages sum exactly to Cost.messages" cost.Commsim.Cost.messages messages

let test_deterministic_exports () =
  let collected1, _ = run_bucket ~collect:true 11 in
  let collected2, _ = run_bucket ~collect:true 11 in
  let c1, r1 = Option.get collected1 in
  let c2, r2 = Option.get collected2 in
  check_str "chrome traces byte-identical"
    (Stats.Json.to_string (Export.chrome_trace c1))
    (Stats.Json.to_string (Export.chrome_trace c2));
  check_str "jsonl byte-identical"
    (String.concat "\n" (Export.jsonl c1))
    (String.concat "\n" (Export.jsonl c2));
  check_str "metrics byte-identical"
    (Stats.Json.to_string (Metrics.to_json r1))
    (Stats.Json.to_string (Metrics.to_json r2))

(* ---------- Metrics registry ---------- *)

let test_metrics_readback () =
  let r = Metrics.create () in
  Metrics.with_registry r (fun () ->
      Metrics.incr "c";
      Metrics.incr ~by:4 "c";
      Metrics.set_gauge "g" 7;
      Metrics.set_gauge "g" 9;
      List.iter (Metrics.observe "h") [ 0; 1; 2; 3; 8; 1000 ]);
  check "counter accumulates" 5 (Metrics.counter_value r "c");
  check "absent counter reads zero" 0 (Metrics.counter_value r "absent");
  check_bool "gauge keeps the latest value" true (Metrics.gauge_value r "g" = Some 9);
  check_bool "absent gauge is None" true (Metrics.gauge_value r "absent" = None);
  match Metrics.sketch_of r "h" with
  | None -> Alcotest.fail "sketch not recorded"
  | Some h ->
      check "count" 6 (Sketch.count h);
      check "sum" 1014 (Sketch.sum h);
      check_bool "min" true (Sketch.min_value h = Some 0);
      check_bool "max" true (Sketch.max_value h = Some 1000);
      (* Rank ceil(6 / 2) = 3 of 0, 1, 2, 3, 8, 1000 is 2, held exactly
         in a unit bucket. *)
      check "p50" 2 (Sketch.p50 h)

let () =
  Alcotest.run "obsv"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ownership" `Quick test_span_nesting;
          Alcotest.test_case "innermost-span attribution" `Quick test_message_attribution;
          Alcotest.test_case "unattributed bucket" `Quick test_unattributed_messages;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "ambient default is a no-op" `Quick test_disabled_is_ambient_default;
          Alcotest.test_case "span fast path allocates nothing" `Quick
            test_disabled_span_allocates_nothing;
          Alcotest.test_case "cost unperturbed by tracing" `Quick
            test_tracing_does_not_perturb_cost;
        ] );
      ( "exports",
        [
          Alcotest.test_case "bucket phase identity" `Quick test_bucket_phase_identity;
          Alcotest.test_case "byte-identical under a fixed seed" `Quick
            test_deterministic_exports;
        ] );
      ("metrics", [ Alcotest.test_case "readbacks" `Quick test_metrics_readback ]);
      ( "window",
        [
          Alcotest.test_case "sub-heap bytes are exact" `Quick test_window_bytes_exact;
          Alcotest.test_case "result and reading" `Quick test_window_reading;
        ] );
    ]
