(* The typed lint pass: cmt discovery, call-graph construction, and the
   semantic rule families R7..R11.

   Scopes live in a [config] value instead of being hard-wired into the
   rules so the test suite can run the same analyses over in-process
   fixtures (whose modules obviously are not called [Commsim.Transport]
   or [Obsv.Phases]). [default_config] encodes this repo's layout. *)

type config = {
  party_prefixes : string list;
      (* R7 roots: the protocol/application layers whose transcripts must replay *)
  sanctioned_prefixes : string list;
      (* R7 stop set: the seeded-randomness homes reaching them is the sanctioned route *)
  meter_prefixes : string list;  (* R8 scope *)
  meter_exempt_prefixes : string list;
      (* R8 holes in that scope: the transport/observability plumbing itself *)
  span_fns : string list;
  transport_fns : string list;
  transport_types : string list;
  transport_labels : string list;
  escape_global_exempt : string list;  (* R9(a): the ambient-state home *)
  escape_capture_exempt : string list;  (* R9(b): the sanctioned domain-pool homes *)
  registry_module : string;  (* R10: the phase-constant module *)
}

let default_config =
  {
    party_prefixes = [ "lib/core/"; "lib/multiparty/"; "lib/apps/"; "lib/session/" ];
    sanctioned_prefixes = [ "lib/prng/"; "lib/engine/seed_stream." ];
    meter_prefixes = [ "lib/" ];
    meter_exempt_prefixes = [ "lib/commsim/"; "lib/obsv/"; "lib/lint/" ];
    span_fns = [ "Obsv.Trace.span" ];
    transport_fns =
      [ "Commsim.Transport.send"; "Commsim.Transport.recv"; "Commsim.Chan.send"; "Commsim.Chan.recv" ];
    transport_types = [ "Commsim.Transport.t" ];
    transport_labels = [ "send"; "recv" ];
    escape_global_exempt = [ "lib/obsv/" ];
    escape_capture_exempt = [ "lib/engine/"; "lib/obsv/" ];
    registry_module = "Obsv.Phases";
  }

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let any_prefix prefixes file = List.exists (fun p -> starts_with ~prefix:p file) prefixes

(* --- R10: dead phases -------------------------------------------------- *)

(* The registry is checked both ways: syntactic R3 rejects span literals
   missing from the registry; R10 reports registry constants nothing
   uses — a dead phase is a bucket the profiler promises but no bits can
   ever land in.  "Used" means referenced by name from outside the
   registry module (covers spans via the constant, and structural users
   like the ledger's bucket list) or appearing as a literal span name. *)
let dead_phases ~config (modus : Cmt_load.modu list) =
  let reg = config.registry_module in
  let in_registry name = starts_with ~prefix:(reg ^ ".") name in
  let constants =
    List.concat_map
      (fun (m : Cmt_load.modu) ->
        List.filter
          (fun (b : Cmt_load.binding) -> in_registry b.Cmt_load.name && b.str_const <> None)
          m.bindings)
      modus
  in
  if constants = [] then []
  else begin
    let used_names = Hashtbl.create 64 and span_literals = Hashtbl.create 64 in
    List.iter
      (fun (m : Cmt_load.modu) ->
        List.iter
          (fun (b : Cmt_load.binding) ->
            if not (in_registry b.Cmt_load.name) then
              List.iter
                (fun (u : Cmt_load.use) ->
                  if in_registry u.upath then Hashtbl.replace used_names u.upath ())
                b.uses;
            List.iter
              (fun (c : Cmt_load.call) ->
                if List.mem c.Cmt_load.fn config.span_fns then
                  match c.argv with
                  | Cmt_load.Astr s -> Hashtbl.replace span_literals s ()
                  | _ -> ())
              b.calls)
          m.bindings)
      modus;
    List.filter_map
      (fun (b : Cmt_load.binding) ->
        let alive =
          Hashtbl.mem used_names b.Cmt_load.name
          || match b.str_const with Some s -> Hashtbl.mem span_literals s | None -> false
        in
        if alive then None
        else
          Some
            (Finding.v ~rule:"R10" ~file:b.bfile ~line:b.bline ~col:b.bcol
               (Printf.sprintf
                  "phase %s (%S) has no span call site and no outside reference: a dead \
                   registry entry is a ledger bucket no bits can reach; drop it or span it"
                  b.name
                  (Option.value ~default:"" b.str_const))))
      constants
  end

(* --- R11: unreachable library bindings --------------------------------- *)

(* Library code exists to be run: a top-level binding under [lib/] that
   no binding of any executable reaches over call edges is dead weight
   (tests are not roots — a binding only a test calls checks nothing
   the program does).  Synthetic [(init:N)] bindings have no name to
   call, and a [For_testing] submodule is the declared home of test
   oracles and instruments, so neither is reported. *)
let exempt name =
  List.exists
    (fun c -> c = "For_testing" || starts_with ~prefix:"(init:" c)
    (String.split_on_char '.' name)

let executables = [ "bin/"; "bench/"; "perf/"; "examples/" ]

let unreachable g =
  let bindings = Callgraph.bindings g in
  let roots =
    List.filter_map
      (fun (b : Cmt_load.binding) ->
        if any_prefix executables b.bfile then Some b.Cmt_load.name else None)
      bindings
  in
  let reached = Callgraph.reach_fwd g ~skip:(fun _ -> false) roots in
  List.filter_map
    (fun (b : Cmt_load.binding) ->
      if
        starts_with ~prefix:"lib/" b.bfile
        && (not (Hashtbl.mem reached b.Cmt_load.name))
        && not (exempt b.name)
      then
        Some
          (Finding.v ~rule:"R11" ~file:b.bfile ~line:b.bline ~col:b.bcol
             (Printf.sprintf
                "%s is unreachable from every executable: delete it, or move it into its \
                 module's For_testing submodule if a test needs it as a reference"
                b.name))
      else None)
    bindings

(* --- the pass ---------------------------------------------------------- *)

let analyze ?(config = default_config) ~types (modus : Cmt_load.modu list) =
  let g = Callgraph.build modus in
  let r7 =
    Taint.determinism g
      ~is_party:(any_prefix config.party_prefixes)
      ~is_sanctioned:(any_prefix config.sanctioned_prefixes)
      ~sinks:Taint.default_sinks
  in
  let in_scope file =
    any_prefix config.meter_prefixes file && not (any_prefix config.meter_exempt_prefixes file)
  in
  let r8 =
    Taint.metering g ~types ~in_scope ~transport_fns:config.transport_fns
      ~transport_types:config.transport_types ~transport_labels:config.transport_labels
      ~span_fns:config.span_fns
  in
  let r9 =
    Escape.check g ~types
      ~exempt_global:(any_prefix config.escape_global_exempt)
      ~exempt_capture:(any_prefix config.escape_capture_exempt)
  in
  let r10 = dead_phases ~config modus in
  let r11 = unreachable g in
  List.sort Finding.compare (r7 @ r8 @ r9 @ r10 @ r11)

(* --- cmt discovery ----------------------------------------------------- *)

let is_dir p = match Sys.is_directory p with b -> b | exception Sys_error _ -> false

let rec walk_cmts acc dir =
  if not (is_dir dir) then acc
  else
    Array.to_list (Sys.readdir dir)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           let p = Filename.concat dir entry in
           if is_dir p then walk_cmts acc p
           else if Filename.check_suffix entry ".cmt" then p :: acc
           else acc)
         acc

(* Where dune put the artifacts: from the repo root that is
   [_build/default]; when the linter itself runs from inside the build
   tree (dune exec, tests), the root already is the build tree. *)
let cmt_root root =
  let candidate = Filename.concat (Filename.concat root "_build") "default" in
  if is_dir candidate then candidate else root

let load ?(config = default_config) ~root ~files () =
  ignore config;
  let file_set = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace file_set f ()) files;
  let top_dirs =
    List.filter_map
      (fun f -> match String.index_opt f '/' with Some i -> Some (String.sub f 0 i) | None -> None)
      files
    |> List.sort_uniq String.compare
  in
  let croot = cmt_root root in
  let cmts =
    List.concat_map (fun d -> walk_cmts [] (Filename.concat croot d)) top_dirs
    |> List.sort String.compare
  in
  let types = Cmt_load.create_types () in
  let seen = Hashtbl.create 64 in
  let modus =
    List.filter_map
      (fun path ->
        match Cmt_load.read_cmt ~types ~path with
        | Some m
          when Hashtbl.mem file_set m.Cmt_load.mfile && not (Hashtbl.mem seen m.Cmt_load.mfile)
          ->
            Hashtbl.replace seen m.Cmt_load.mfile ();
            Some m
        | _ -> None)
      cmts
  in
  if modus = [] then
    Error
      (Printf.sprintf
         "no .cmt artifacts for the scanned sources under %s: build first (dune build @check)"
         croot)
  else Ok (types, modus)

let run ?(config = default_config) ~root ~files () =
  match load ~config ~root ~files () with
  | Error _ as e -> e
  | Ok (types, modus) -> Ok (List.length modus, analyze ~config ~types modus)
