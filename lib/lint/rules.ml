open Parsetree

let catalogue =
  [
    ("syntax", "source file must parse with the project's compiler front end");
    ("R1", "determinism: no ambient randomness or wall-clock reads outside lib/prng");
    ("R2", "ambient state: no top-level mutable globals outside lib/obsv");
    ("R4", "domain hygiene: Domain.spawn/Domain.DLS only in lib/engine and lib/obsv");
    ("R5", "interface coverage: every lib/**.ml has a matching .mli");
    ("R6", "flight recorder: Obsv.Recorder.event written only from lib/session and lib/obsv");
    ("R7", "determinism taint (typed): nothing reachable from party code reads ambient state");
    ("R8", "metered transport (typed): every Transport send/recv runs under a Trace.span");
    ("R9", "cross-domain escape (typed): no module-global or spawn-captured mutable values");
    ("R10", "dead phases (typed): every Obsv.Phases constructor is built outside the registry");
    ("R11", "unreachable library binding (typed): every lib/ binding is reached from an executable");
  ]

let rule_ids = List.map fst catalogue

(* The long-form story behind each rule, for `intersect_lint --explain`.
   The one-liners above say what fires; these say why the invariant
   exists and what the sanctioned alternative is. *)
let explain id =
  match id with
  | "syntax" ->
      Some
        "Every scanned .ml/.mli must parse with the project's own compiler front end. A file \
         the linter cannot read is a file no rule protects."
  | "R1" ->
      Some
        "Syntactic determinism: direct references to ambient Random, clocks \
         (Unix.gettimeofday, Sys.time, Monotonic_clock.now) or unseeded runtime hashing are \
         flagged at the use site. Trial results must be a pure function of the seed so \
         conformance gates and byte-identical replay hold; randomness is threaded as Prng.Rng \
         values from lib/prng, time comes from the trace's event clock, and bench loops read \
         the clock through Obsv.Window."
  | "R2" ->
      Some
        "Syntactic ambient state: top-level `ref`, Atomic.make, Hashtbl/Queue/Stack/Buffer \
         .create outside lib/obsv are flagged. Module-global mutable state is shared by \
         every domain and every trial; state is passed explicitly or kept behind Obsv's \
         domain-local wrappers. (R9 is the typed generalisation by type, not constructor.)"
  | "R4" ->
      Some
        "Domain hygiene: Domain.spawn and Domain.DLS appear only in lib/engine (the pool) \
         and lib/obsv (ambient collectors). Everything else receives parallelism through \
         Engine.Pool so determinism contracts (byte-identical at any domain count) are \
         enforced in one place."
  | "R5" ->
      Some
        "Interface coverage: every lib/**.ml has a matching .mli. Abstraction boundaries \
         keep refactors safe at scale and make the public surface reviewable."
  | "R6" ->
      Some
        "Flight recorder: Obsv.Recorder.event is written only from lib/session and lib/obsv \
         so a post-mortem is a trustworthy account of what the session machine did, not a \
         mix of narrators. Reading (create/events/post_mortem_json) is open to everyone."
  | "R7" ->
      Some
        "Typed determinism taint: the call graph over all .cmt files is walked forward from \
         every binding in party code (lib/core, lib/multiparty, lib/apps, lib/session). Any \
         reachable binding that references Random.*, a wall clock, or unseeded hashing is \
         flagged with the offending call chain — closing the helper-wraps-Random hole \
         syntactic R1 cannot see. Paths into lib/prng and the engine's seed stream are the \
         sanctioned route and stop the walk."
  | "R8" ->
      Some
        "Typed metered-transport accounting: every Commsim.Transport send/recv site (direct \
         call or send/recv field projection from the transport record, through aliases) in \
         protocol code must be dominated by a span-opening binding on every in-scope caller \
         path. Otherwise some bits cross the wire while no phase is open and per-phase \
         ledgers stop summing to Cost.total_bits. The finding carries an unattributed entry \
         path as the witness."
  | "R9" ->
      Some
        "Typed cross-domain escape: a value whose type carries mutable state (ref, array, \
         bytes, Hashtbl/Buffer/Queue/Stack, or any record with a mutable field, resolved \
         through type aliases) may not sit at module scope or be captured by a Domain.spawn \
         closure. This is the rule that catches the PR-5 Splitmix64 shared-scratch record — \
         a mutable-record literal R2's constructor list is blind to. Atomic.t, \
         Domain.DLS.key and the runtime locks are sanctioned; lib/engine's pool and \
         lib/obsv's collectors are the structural homes."
  | "R10" ->
      Some
        "Dead phases: Trace.span takes an Obsv.Phases.t, so the type checker already rejects \
         a phase the registry does not list. The reverse direction is this rule: a Phases.t \
         constructor that no binding outside Obsv.Phases builds is a dead phase — a ledger \
         bucket the profiler promises but no bits can ever land in. Drop it or span it."
  | "R11" ->
      Some
        "Typed reachability: every binding of every file under bin/, bench/, perf/ and \
         examples/ roots the call graph, and a top-level lib/ binding no root reaches is \
         flagged. Tests are not roots: code only a test calls is code the program does not \
         run. References through module aliases (module M = P, let module M = P in) and \
         binding operators (let*, and*) count as edges. Synthetic (init:N) bindings are never \
         reported, and a module's For_testing submodule is the declared home of test \
         oracles and instruments. Delete the binding, or move it into For_testing when a test \
         needs it as a reference."
  | _ -> None

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix

(* Structural scopes: these exemptions define the rule (the sanctioned
   homes of randomness, ambient state, and domains), as opposed to
   allowlist entries, which record case-by-case exceptions. *)
let exempt ~file rule =
  match rule with
  | "R1" -> starts_with ~prefix:"lib/prng/" file || starts_with ~prefix:"lib/engine/seed_stream." file
  | "R2" -> starts_with ~prefix:"lib/obsv/" file
  | "R4" -> starts_with ~prefix:"lib/engine/" file || starts_with ~prefix:"lib/obsv/" file
  | "R6" -> starts_with ~prefix:"lib/session/" file || starts_with ~prefix:"lib/obsv/" file
  | _ -> false

let finding ~rule ~file (loc : Location.t) message =
  let p = loc.loc_start in
  Finding.v ~rule ~file ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol) message

(* Identifier paths, with a leading Stdlib. qualifier stripped so
   Stdlib.Random.int and Random.int are the same offense. *)
let norm parts = match parts with "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts

let r1_ident parts =
  match parts with
  | "Random" :: _ ->
      Some "ambient Random breaks seeded replay; thread a Prng.Rng (or Engine.Seed_stream) instead"
  | [ "Unix"; ("time" | "gettimeofday") ] | [ "Sys"; "time" ] | [ "Monotonic_clock"; "now" ] ->
      Some "clock reads are nondeterministic; use the trace's event clock, or time bench loops through Obsv.Window"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param" | "randomize") ] ->
      Some "runtime polymorphic hashing is unseeded; use a lib/hashing family keyed by Prng.Rng"
  | _ -> None

let r4_ident parts =
  match parts with
  | "Domain" :: ("spawn" | "DLS") :: _ ->
      Some "parallelism and domain-local state belong to lib/engine (Pool) and lib/obsv (ambient collectors)"
  | _ -> None

(* Reading a recorder (create / events / post_mortem_json) is open to
   everyone; *writing* events is reserved for the session layer so a
   post-mortem is a trustworthy account of what the session machine did,
   not a mix of narrators. *)
let r6_ident parts =
  match parts with
  | [ "Recorder"; "event" ] | [ "Obsv"; "Recorder"; "event" ] ->
      Some
        "flight-recorder events are the session layer's narration; record domain events in \
         lib/session (or harvest them via post_mortem_json) instead of writing directly"
  | _ -> None

(* R1/R4/R6 are expression-level rules walked over the whole AST. *)
let check_expressions ~file structure =
  let acc = ref [] in
  let add ~rule loc msg = if not (exempt ~file rule) then acc := finding ~rule ~file loc msg :: !acc in
  let ident_path e = match e.pexp_desc with Pexp_ident { txt; _ } -> Some (norm (Longident.flatten txt)) | _ -> None in
  let check_ident loc parts =
    let path = String.concat "." parts in
    (match r1_ident parts with
    | Some why -> add ~rule:"R1" loc (Printf.sprintf "%s: %s" path why)
    | None -> ());
    (match r4_ident parts with
    | Some why -> add ~rule:"R4" loc (Printf.sprintf "%s: %s" path why)
    | None -> ());
    match r6_ident parts with
    | Some why -> add ~rule:"R6" loc (Printf.sprintf "%s: %s" path why)
    | None -> ()
  in
  let check_apply fn args =
    match ident_path fn with
    | Some [ "Hashtbl"; "create" ] ->
        List.iter
          (fun (label, (arg : expression)) ->
            match (label, arg.pexp_desc) with
            | ( (Asttypes.Labelled "random" | Asttypes.Optional "random"),
                Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ) ->
                ()
            | (Asttypes.Labelled "random" | Asttypes.Optional "random"), _ ->
                add ~rule:"R1" arg.pexp_loc
                  "Hashtbl.create ~random uses the runtime's random seed; iteration order would differ per run"
            | _ -> ())
          args
    | _ -> ()
  in
  let expr self (e : expression) =
    (match e.pexp_desc with
    | Pexp_apply (fn, args) -> check_apply fn args
    | Pexp_ident { txt; _ } -> check_ident e.pexp_loc (norm (Longident.flatten txt))
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  (* `open Random` (top-level or `let open`) defeats the qualified-path
     check, so the open itself is the finding. *)
  let open_declaration self (od : open_declaration) =
    (match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } -> (
        match norm (Longident.flatten txt) with
        | "Random" :: _ ->
            add ~rule:"R1" od.popen_loc "opening Random makes every unqualified draw nondeterministic"
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.open_declaration self od
  in
  let it = { Ast_iterator.default_iterator with expr; open_declaration } in
  it.structure it structure;
  !acc

(* R2: mutable state constructed at module top level (not inside any
   function), including under `lazy` and nested structures. *)
let rec r2_ctor e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_lazy e -> r2_ctor e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match norm (Longident.flatten txt) with
      | [ "ref" ] -> Some "ref"
      | [ ("Atomic" as m); "make" ] | [ (("Hashtbl" | "Queue" | "Stack" | "Buffer") as m); "create" ] ->
          Some (m ^ (if m = "Atomic" then ".make" else ".create"))
      | _ -> None)
  | _ -> None

let check_toplevel_state ~file structure =
  if exempt ~file "R2" then []
  else
    let acc = ref [] in
    let rec walk_module_expr (me : module_expr) =
      match me.pmod_desc with
      | Pmod_structure items -> walk_items items
      | Pmod_constraint (me, _) -> walk_module_expr me
      | _ -> ()
    and walk_items items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, bindings) ->
              List.iter
                (fun vb ->
                  match r2_ctor vb.pvb_expr with
                  | Some ctor ->
                      acc :=
                        finding ~rule:"R2" ~file vb.pvb_loc
                          (Printf.sprintf
                             "top-level %s is ambient mutable state; keep it behind Obsv's \
                              Domain-local wrappers or pass it explicitly"
                             ctor)
                        :: !acc
                  | None -> ())
                bindings
          | Pstr_module { pmb_expr; _ } -> walk_module_expr pmb_expr
          | Pstr_recmodule bindings -> List.iter (fun mb -> walk_module_expr mb.pmb_expr) bindings
          | Pstr_include { pincl_mod; _ } -> walk_module_expr pincl_mod
          | _ -> ())
        items
    in
    walk_items structure;
    !acc

let check_structure ~file structure =
  check_expressions ~file structure @ check_toplevel_state ~file structure

let check_mli_coverage ~files =
  let have = List.filter (ends_with ~suffix:".mli") files in
  files
  |> List.filter (fun f -> starts_with ~prefix:"lib/" f && ends_with ~suffix:".ml" f)
  |> List.filter_map (fun f ->
         if List.mem (f ^ "i") have then None
         else
           Some
             (Finding.v ~rule:"R5" ~file:f ~line:1 ~col:0
                (Printf.sprintf
                   "library module has no interface: expected %si (abstraction boundaries keep \
                    refactors safe at scale)"
                   f)))
