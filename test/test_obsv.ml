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
   span) and one 3-bit reply from Bob.  Each span body sets attributes;
   the outer one sets one more after the inner span has closed. *)
let run_spanned () =
  let collector = Trace.create () in
  let _, cost =
    Trace.with_collector collector (fun () ->
        Commsim.Network.run
          [|
            (fun ep ->
              Trace.span Phases.Tree_eq (fun () ->
                  Trace.attr "stage" 1;
                  Commsim.Network.send ep ~to_:1 (bits_of_int ~width:8 42);
                  Trace.span Phases.Tree_rerun (fun () ->
                      Trace.attr "stage" 2;
                      Trace.attr_string "step" "inner";
                      Commsim.Network.send ep ~to_:1 (bits_of_int ~width:4 7));
                  Trace.attr "after" 3;
                  Commsim.Network.send ep ~to_:1 (bits_of_int ~width:2 1));
              ignore (Commsim.Network.recv ep ~from_:1));
            (fun ep ->
              ignore (Commsim.Network.recv ep ~from_:0);
              ignore (Commsim.Network.recv ep ~from_:0);
              ignore (Commsim.Network.recv ep ~from_:0);
              Trace.span Phases.Bi_tags (fun () ->
                  Trace.attr "bits" 3;
                  Commsim.Network.send ep ~to_:0 (bits_of_int ~width:3 5)));
          |])
  in
  (collector, cost)

let span_of collector phase =
  match List.find_opt (fun (s : Trace.span) -> s.Trace.phase = phase) (Trace.spans collector) with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" (Phases.name phase)

let test_span_nesting () =
  let collector, _ = run_spanned () in
  check "three spans" 3 (List.length (Trace.spans collector));
  let outer = span_of collector Phases.Tree_eq in
  let inner = span_of collector Phases.Tree_rerun in
  let reply = span_of collector Phases.Bi_tags in
  check_bool "outer has no parent" true (outer.Trace.parent = None);
  check_bool "inner nests under outer" true (inner.Trace.parent = Some outer.Trace.id);
  check_bool "reply has no parent" true (reply.Trace.parent = None);
  check_bool "outer belongs to player 0" true (outer.Trace.rank = Some 0);
  check_bool "reply belongs to player 1" true (reply.Trace.rank = Some 1);
  check_bool "spans are closed" true
    (List.for_all (fun (s : Trace.span) -> s.Trace.end_seq >= 0) (Trace.spans collector));
  check_bool "outer keeps its attrs, in order" true
    (outer.Trace.attrs = [ ("stage", "1"); ("after", "3") ]);
  check_bool "inner keeps its attrs, in order" true
    (inner.Trace.attrs = [ ("stage", "2"); ("step", "inner") ]);
  check_bool "reply keeps its attrs" true (reply.Trace.attrs = [ ("bits", "3") ])

(* Every phase has its own ledger name, and none is the unattributed
   bucket's. *)
let test_phase_names_injective () =
  let names = List.map Phases.name Phases.For_testing.all in
  check "injective" (List.length names) (List.length (List.sort_uniq String.compare names));
  check_bool "no phase is named like the unattributed bucket" false
    (List.mem Phases.unattributed names)


(* The ledger's bits: by construction the total of every message the
   collector saw. *)
let phase_bits c = List.fold_left (fun acc (p : Export.phase) -> acc + p.Export.bits) 0 (Export.phases c)

let test_message_attribution () =
  let collector, cost = run_spanned () in
  let outer = span_of collector Phases.Tree_eq in
  let inner = span_of collector Phases.Tree_rerun in
  let reply = span_of collector Phases.Bi_tags in
  (* The innermost open span of the sender wins; bits accumulate where
     they were attributed, never twice. *)
  check "outer gets the 8-bit and 2-bit sends" 10 outer.Trace.bits;
  check "inner gets the 4-bit send" 4 inner.Trace.bits;
  check "reply gets the 3-bit send" 3 reply.Trace.bits;
  check "messages recorded" 4 (List.length (Trace.messages collector));
  (* Each message event names the span it was attributed to. *)
  let span_ids = List.map (fun (m : Trace.message) -> m.Trace.span) (Trace.messages collector) in
  check_bool "message events carry span ids" true
    (span_ids
    = [ Some outer.Trace.id; Some inner.Trace.id; Some outer.Trace.id; Some reply.Trace.id ]);
  (* The per-phase ledger covers the metered total exactly. *)
  check "phase bits sum to total" cost.Commsim.Cost.total_bits
    (phase_bits collector);
  let by_phase =
    List.map (fun (p : Export.phase) -> (p.Export.phase, p.Export.bits)) (Export.phases collector)
  in
  check_bool "ledger rows" true
    (by_phase = [ ("tree/eq", 10); ("tree/rerun", 4); ("bi/tags", 3) ])

let test_unattributed_messages () =
  let collector = Trace.create () in
  let _, cost =
    Trace.with_collector collector (fun () ->
        Commsim.Network.run
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
  let r = Trace.span Phases.Bucket_eq (fun () -> 17) in
  check "span still runs its body" 17 r;
  check "nothing recorded" 0 (List.length (Trace.spans Trace.disabled));
  Metrics.incr "ignored";
  Metrics.observe "ignored" 5;
  check "metrics drop writes when disabled" 0 (Metrics.counter_value Metrics.disabled "ignored");
  check_bool "no sketch on the disabled registry" true (Metrics.sketches_list Metrics.disabled = [])

(* A disabled span site, with attributes or without, allocates exactly
   what its body does.  The body closures are built before the window
   opens, so the window sees what a site adds: the span call and its
   attribute calls, whose int values become strings only under a
   collector.  1000 calls per window, so one word per call would read
   as 8000 bytes. *)
let test_disabled_span_allocates_nothing () =
  let stage = Sys.opaque_identity 3 in
  let plain () = stage + 1 in
  let attributed () =
    Trace.attr "stage" stage;
    Trace.attr_string "rung" "guarded";
    stage + 1
  in
  let bytes f =
    let _, w =
      Window.measure (fun () ->
          for _ = 1 to 1000 do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    w.Window.alloc_bytes
  in
  let body_only = bytes plain in
  check "span site without attributes: 0 B" 0
    (bytes (fun () -> Trace.span Phases.Tree_eq plain) - body_only);
  check "span site with attributes: 0 B" 0
    (bytes (fun () -> Trace.span Phases.Tree_rerun attributed) - body_only)

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
    (phase_bits c);
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
      ("phases", [ Alcotest.test_case "names injective" `Quick test_phase_names_injective ]);
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
