(* Semantic dataflow rules over the call graph.

   R7 (determinism taint): anything transitively reachable from protocol
   party code must stay away from ambient-nondeterminism primitives.
   The syntactic R1 flags a direct [Random.int] at its use site; R7
   closes the wrapper hole — a helper that launders randomness through
   an allowlisted or out-of-the-way module is caught the moment party
   code can reach it, with the offending call chain in the message.

   R8 (metered-transport accounting): every transport send/recv site in
   protocol code must be dominated by a span-opening binding on every
   path from an entry point, so the per-phase bit ledgers provably sum
   to [Cost.total_bits] — no bits can flow while no phase is open. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Ambient-nondeterminism sinks, canonical spelling, mirroring the
   syntactic R1 list. *)
let default_sinks path =
  starts_with ~prefix:"Stdlib.Random." path
  || List.mem path
       [
         "Unix.time";
         "Unix.gettimeofday";
         "Monotonic_clock.now";
         "Stdlib.Sys.time";
         "Stdlib.Hashtbl.hash";
         "Stdlib.Hashtbl.seeded_hash";
         "Stdlib.Hashtbl.hash_param";
         "Stdlib.Hashtbl.randomize";
       ]

let fmt_chain chain = String.concat " -> " chain

(* --- R7 ---------------------------------------------------------------- *)

let determinism g ~is_party ~is_sanctioned ~sinks =
  let file_of n =
    match Callgraph.binding g n with Some b -> b.Cmt_load.bfile | None -> ""
  in
  let roots =
    List.filter (fun n -> is_party (file_of n)) (Callgraph.names g)
  in
  let skip n = is_sanctioned (file_of n) in
  let parent = Callgraph.reach_fwd g ~skip roots in
  let findings = ref [] in
  List.iter
    (fun n ->
      if Hashtbl.mem parent n && not (is_party (file_of n)) then
        match Callgraph.binding g n with
        | None -> ()
        | Some b ->
            (* One finding per distinct sink per binding, at its first
               occurrence. *)
            let seen = Hashtbl.create 4 in
            List.iter
              (fun (u : Cmt_load.use) ->
                if sinks u.upath && not (Hashtbl.mem seen u.upath) then begin
                  Hashtbl.replace seen u.upath ();
                  let chain = Callgraph.chain parent n in
                  findings :=
                    Finding.v ~rule:"R7" ~file:b.bfile ~line:u.uline ~col:u.ucol
                      (Printf.sprintf
                         "%s is reachable from party code (%s): seeded replay breaks if any \
                          reachable helper reads ambient state; thread a Prng.Rng instead"
                         u.upath (fmt_chain chain))
                    :: !findings
                end)
              b.uses)
    (Callgraph.names g);
  !findings

(* --- R8 ---------------------------------------------------------------- *)

(* A binding "attributes" bits if its body opens a span: every transport
   op it (transitively, without leaving attributed scope) performs lands
   in that span's phase ledger. *)
let opens_span ~span_fns (b : Cmt_load.binding) =
  List.exists (fun (c : Cmt_load.call) -> List.mem c.Cmt_load.fn span_fns) b.calls

(* Transport op sites inside one binding: direct calls to the transport
   functions plus field projections (send/recv closures) from a record
   type that resolves to the transport type. *)
let op_sites ~types ~transport_fns ~transport_types ~transport_labels (b : Cmt_load.binding) =
  let calls =
    List.filter_map
      (fun (c : Cmt_load.call) ->
        if List.mem c.Cmt_load.fn transport_fns then Some (c.Cmt_load.fn, c.cline, c.ccol)
        else None)
      b.calls
  in
  let fields =
    List.filter_map
      (fun (f : Cmt_load.field_use) ->
        if
          List.mem f.Cmt_load.flabel transport_labels
          && List.mem (Cmt_load.resolve_alias types f.Cmt_load.ftype) transport_types
        then Some (f.Cmt_load.ftype ^ "." ^ f.Cmt_load.flabel, f.fline, f.fcol)
        else None)
      b.field_uses
  in
  List.sort compare (calls @ fields)

let metering g ~types ~in_scope ~transport_fns ~transport_types ~transport_labels ~span_fns =
  let file_of n =
    match Callgraph.binding g n with Some b -> b.Cmt_load.bfile | None -> ""
  in
  let attributing n =
    match Callgraph.binding g n with Some b -> opens_span ~span_fns b | None -> false
  in
  let in_scope_node n = in_scope (file_of n) in
  let findings = ref [] in
  List.iter
    (fun n ->
      match Callgraph.binding g n with
      | None -> ()
      | Some b when not (in_scope b.bfile) -> ()
      | Some b -> (
          match op_sites ~types ~transport_fns ~transport_types ~transport_labels b with
          | [] -> ()
          | (op, line, col) :: _ ->
              if not (attributing n) then begin
                (* Walk callers backwards, never through a span-opening
                   binding and never outside scope.  If an entry node —
                   one with no in-scope callers — is reachable, there is
                   a path on which these bits hit the wire with no phase
                   open. *)
                let skip m = (m <> n && attributing m) || not (in_scope_node m) in
                let parent = Callgraph.reach_bwd g ~skip [ n ] in
                let entries =
                  Hashtbl.fold
                    (fun m _ acc ->
                      let callers = List.filter in_scope_node (Callgraph.preds g m) in
                      if callers = [] then m :: acc else acc)
                    parent []
                  |> List.sort String.compare
                in
                match entries with
                | [] -> ()
                | entry :: _ ->
                    let chain = List.rev (Callgraph.chain parent entry) in
                    findings :=
                      Finding.v ~rule:"R8" ~file:b.bfile ~line ~col
                        (Printf.sprintf
                           "%s runs with no enclosing Trace.span on the path %s: these bits \
                            escape the phase ledger, so profiles no longer sum to \
                            Cost.total_bits"
                           op (fmt_chain chain))
                      :: !findings
              end))
    (Callgraph.names g);
  !findings
