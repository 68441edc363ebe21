(* Typed-tree loading for the semantic lint pass (rules R7..R11).

   The syntactic rules (R1..R6) see one Parsetree at a time; the typed
   pass instead reads the .cmt artifacts dune already produces and
   distills every module into a small IR: its top-level bindings, every
   value they reference (canonical dotted names, so cross-module edges
   line up), the calls they make, record-field uses (with the record's
   type), references captured inside Domain.spawn closure arguments, and
   the type declarations that carry mutable state.  Everything downstream
   (Callgraph, Taint, Escape) works on this IR only, which is also what
   lets tests type small fixture sources in-process and run the same
   analyses on them. *)

type use = { upath : string; uline : int; ucol : int }
type arg = Astr of string | Apath of string | Adyn
type call = { fn : string; argv : arg; cline : int; ccol : int }
type field_use = { ftype : string; flabel : string; fline : int; fcol : int }
type capture = { cvar : string; cheads : string list; kline : int; kcol : int }

type binding = {
  name : string;
  bfile : string;
  bline : int;
  bcol : int;
  uses : use list;
  calls : call list;
  field_uses : field_use list;
  captures : capture list;
  str_const : string option;
  top_heads : string list;
  r2_ctor : bool;
}

type modu = { mod_path : string; mfile : string; bindings : binding list }

(* --- type registry: which type names carry mutable state ------------- *)

type types_info = {
  mutable_records : (string, unit) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;  (* canonical name -> manifest head *)
}

let create_types () = { mutable_records = Hashtbl.create 64; aliases = Hashtbl.create 64 }

(* Built-in mutable type heads, as Path.name prints them: predefined
   types print bare ([array], [bytes]); Stdlib types print qualified. *)
let builtin_mutable =
  [
    "Stdlib.ref";
    "ref";
    "array";
    "bytes";
    "floatarray";
    "Stdlib.Hashtbl.t";
    "Stdlib.Buffer.t";
    "Stdlib.Queue.t";
    "Stdlib.Stack.t";
  ]

(* Types that are mutable but sanctioned for cross-domain use: the
   runtime's own synchronisation primitives and per-domain slots. *)
let cross_domain_safe =
  [
    "Stdlib.Atomic.t";
    "Stdlib.Domain.DLS.key";
    "Stdlib.Mutex.t";
    "Stdlib.Condition.t";
    "Stdlib.Semaphore.Counting.t";
  ]

let resolve_alias types name =
  let rec go seen name =
    if List.mem name seen then name
    else
      match Hashtbl.find_opt types.aliases name with
      | Some next -> go (name :: seen) next
      | None -> name
  in
  go [] name

let is_mutable_type types name =
  let resolved = resolve_alias types name in
  List.mem resolved builtin_mutable || Hashtbl.mem types.mutable_records resolved

let is_cross_domain_safe types name = List.mem (resolve_alias types name) cross_domain_safe

(* --- canonical names -------------------------------------------------- *)

(* Dune mangles wrapped-library modules to [Lib__Module]; fold that back
   to the dotted form references use ([Lib.Module]).  Only capitalized
   components are split so value names with double underscores survive. *)
let split_mangled comp =
  if comp = "" || not (comp.[0] >= 'A' && comp.[0] <= 'Z') then [ comp ]
  else begin
    let parts = ref [] and buf = Buffer.create (String.length comp) in
    let n = String.length comp in
    let i = ref 0 in
    while !i < n do
      if !i + 1 < n && comp.[!i] = '_' && comp.[!i + 1] = '_' then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf;
        i := !i + 2
      end
      else begin
        Buffer.add_char buf comp.[!i];
        incr i
      end
    done;
    parts := Buffer.contents buf :: !parts;
    List.rev_map String.capitalize_ascii !parts
  end

(* [Dune__exe__Intersect_cli] -> [Some "Intersect_cli"]; the generated
   wrapper modules themselves ([Dune__exe], library aliases compiled
   from [*.ml-gen]) are not user code and load as [None]. *)
let canon_modname name =
  match split_mangled name with
  | [ "Dune"; "Exe" ] -> None
  | "Dune" :: "Exe" :: rest -> Some (String.concat "." rest)
  | parts -> Some (String.concat "." parts)

let canon_global_path p =
  Path.name p |> String.split_on_char '.' |> List.concat_map split_mangled |> String.concat "."

(* Canonical dotted name of a referenced path.  Top-level idents of the
   current compilation unit resolve through [locals] (registered by
   stamp in a pre-pass); global heads print qualified; function-local
   idents yield [None]. *)
let canon_path ~mod_path ~locals p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt locals (Ident.unique_name id) with
      | Some name -> Some name
      | None -> if Ident.global id || Ident.is_predef id then Some (Ident.name id) else None)
  | _ ->
      let head = Path.head p in
      if Ident.global head || Ident.is_predef head then Some (canon_global_path p)
      else
        let tail = Path.name p in
        let tail =
          match Hashtbl.find_opt locals (Ident.unique_name head) with
          | Some bound -> (
              (* A nested module registered during the pre-pass: splice
                 its canonical name in place of the bare head. *)
              match String.index_opt tail '.' with
              | Some i -> bound ^ String.sub tail i (String.length tail - i)
              | None -> bound)
          | None -> mod_path ^ "." ^ tail
        in
        Some tail

(* Head constructor names of a type, unwrapping one level of lazy so
   [lazy (Hashtbl.create n)] still exposes the table's type.  [canon]
   resolves type paths declared in the current unit to their qualified
   names (so a local [type t = { mutable ... }] matches its registry
   entry); everything else prints globally. *)
let type_heads ~canon ty =
  let head ty =
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
        let name = match canon p with Some n -> n | None -> canon_global_path p in
        Some (name, args)
    | _ -> None
  in
  match head ty with
  | None -> []
  | Some (name, args) when name = "Stdlib.Lazy.t" || name = "lazy_t" || name = "CamlinternalLazy.t"
    ->
      name :: List.concat_map (fun a -> match head a with Some (n, _) -> [ n ] | None -> []) args
  | Some (name, _) -> [ name ]

(* --- structure extraction --------------------------------------------- *)

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (max 1 p.pos_lnum, max 0 (p.pos_cnum - p.pos_bol))

let spawn_paths = [ "Stdlib.Domain.spawn"; "Domain.spawn" ]

(* R2's syntactic constructor list: the typed escape rule skips these so
   one offense does not surface under two rule ids. *)
let r2_ctor_paths =
  [
    "Stdlib.ref";
    "Stdlib.Atomic.make";
    "Stdlib.Hashtbl.create";
    "Stdlib.Queue.create";
    "Stdlib.Stack.create";
    "Stdlib.Buffer.create";
  ]

type walk_acc = {
  mutable a_uses : use list;
  mutable a_calls : call list;
  mutable a_fields : field_use list;
  mutable a_caps : capture list;
}

let extract ~types ~mod_path ~file str =
  let locals = Hashtbl.create 128 in
  let rec strip_module (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_structure s -> Some s
    | Typedtree.Tmod_constraint (me, _, _, _) -> strip_module me
    | _ -> None
  in
  let rec alias_target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some p
    | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  let canon p = canon_path ~mod_path ~locals p in
  (* [module J = Stats.Json] and [let module J = Stats.Json in]: the
     alias ident stands for its target's canonical name, so [J.member]
     resolves to [Stats.Json.member] rather than a name no binding has. *)
  let register_alias id me =
    match alias_target me with
    | Some p -> (
        match canon p with
        | Some target ->
            Hashtbl.replace locals (Ident.unique_name id) target;
            true
        | None -> false)
    | None -> false
  in
  (* Pre-pass: register every top-level binding (and nested module) ident
     so references resolve regardless of item order. *)
  let rec pre prefix its =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                List.iter
                  (fun (id, _, _) ->
                    Hashtbl.replace locals (Ident.unique_name id) (prefix ^ "." ^ Ident.name id))
                  (Typedtree.pat_bound_idents_full vb.vb_pat))
              vbs
        | Typedtree.Tstr_module mb -> pre_module prefix mb.mb_id mb.mb_expr
        | Typedtree.Tstr_recmodule mbs ->
            List.iter
              (fun (mb : Typedtree.module_binding) -> pre_module prefix mb.mb_id mb.mb_expr)
              mbs
        | Typedtree.Tstr_type (_, tds) ->
            (* Type declarations too: heads of values of a unit-local
               record type must print qualified to match the registry. *)
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                Hashtbl.replace locals
                  (Ident.unique_name td.typ_id)
                  (prefix ^ "." ^ Ident.name td.typ_id))
              tds
        | _ -> ())
      its
  and pre_module prefix id me =
    match id with
    | None -> ()
    | Some id when register_alias id me -> ()
    | Some id -> (
        let sub = prefix ^ "." ^ Ident.name id in
        Hashtbl.replace locals (Ident.unique_name id) sub;
        match strip_module me with
        | Some s -> pre sub s.Typedtree.str_items
        | None -> ())
  in
  pre mod_path str.Typedtree.str_items;
  let canon_fn (fn : Typedtree.expression) =
    match fn.exp_desc with Typedtree.Texp_ident (p, _, _) -> canon p | _ -> None
  in
  (* Expression walk for one top-level binding body. *)
  let walk_expr expr =
    let acc = { a_uses = []; a_calls = []; a_fields = []; a_caps = [] } in
    let spawn_ctx : (string, unit) Hashtbl.t option ref = ref None in
    let maybe_capture name (e : Typedtree.expression) p =
      match !spawn_ctx with
      | None -> ()
      | Some bound ->
          let locally_bound =
            match p with
            | Path.Pident id -> Hashtbl.mem bound (Ident.unique_name id)
            | _ -> false
          in
          if not locally_bound then
            let heads = type_heads ~canon e.exp_type in
            if heads <> [] then begin
              let line, col = pos_of e.exp_loc in
              acc.a_caps <- { cvar = name; cheads = heads; kline = line; kcol = col } :: acc.a_caps
            end
    in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            match e.exp_desc with
            | Typedtree.Texp_ident (p, _, _) ->
                (match canon p with
                | Some name ->
                    let line, col = pos_of e.exp_loc in
                    acc.a_uses <- { upath = name; uline = line; ucol = col } :: acc.a_uses;
                    maybe_capture name e p
                | None ->
                    let name =
                      match p with Path.Pident id -> Ident.name id | _ -> Path.name p
                    in
                    maybe_capture name e p);
                Tast_iterator.default_iterator.expr self e
            | Typedtree.Texp_apply (fn, args) -> (
                (match canon_fn fn with
                | Some fname ->
                    let argv =
                      match
                        List.find_opt
                          (fun (label, a) -> label = Asttypes.Nolabel && a <> None)
                          args
                      with
                      | Some (_, Some (a : Typedtree.expression)) -> (
                          match a.exp_desc with
                          | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) -> Astr s
                          | Typedtree.Texp_ident (ap, _, _) -> (
                              match canon ap with Some n -> Apath n | None -> Adyn)
                          | _ -> Adyn)
                      | _ -> Adyn
                    in
                    let line, col = pos_of e.exp_loc in
                    acc.a_calls <- { fn = fname; argv; cline = line; ccol = col } :: acc.a_calls
                | None -> ());
                match canon_fn fn with
                | Some fname when List.mem fname spawn_paths && !spawn_ctx = None ->
                    (* Walk closure arguments inside a capture context:
                       idents bound within the subtree are domain-local,
                       everything else referenced there is shared. *)
                    self.Tast_iterator.expr self fn;
                    spawn_ctx := Some (Hashtbl.create 32);
                    List.iter (fun (_, a) -> Option.iter (self.Tast_iterator.expr self) a) args;
                    spawn_ctx := None
                | _ -> Tast_iterator.default_iterator.expr self e)
            | Typedtree.Texp_letmodule (Some id, _, _, me, _) ->
                ignore (register_alias id me : bool);
                Tast_iterator.default_iterator.expr self e
            | Typedtree.Texp_letop { let_; ands; _ } ->
                (* [let*]/[and*] call their operator bindings. *)
                List.iter
                  (fun (bop : Typedtree.binding_op) ->
                    match canon bop.bop_op_path with
                    | Some name ->
                        let line, col = pos_of bop.bop_loc in
                        acc.a_uses <- { upath = name; uline = line; ucol = col } :: acc.a_uses
                    | None -> ())
                  (let_ :: ands);
                Tast_iterator.default_iterator.expr self e
            | Typedtree.Texp_field (_, _, ld) ->
                let line, col = pos_of e.exp_loc in
                let ftype =
                  match Types.get_desc ld.lbl_res with
                  | Types.Tconstr (p, _, _) -> (
                      match canon p with Some n -> n | None -> canon_global_path p)
                  | _ -> "<unknown>"
                in
                acc.a_fields <-
                  { ftype; flabel = ld.lbl_name; fline = line; fcol = col } :: acc.a_fields;
                Tast_iterator.default_iterator.expr self e
            | _ -> Tast_iterator.default_iterator.expr self e);
        pat =
          (fun (type k) self (p : k Typedtree.general_pattern) ->
            (match !spawn_ctx with
            | Some bound ->
                List.iter
                  (fun (id, _, _) -> Hashtbl.replace bound (Ident.unique_name id) ())
                  (Typedtree.pat_bound_idents_full p)
            | None -> ());
            Tast_iterator.default_iterator.pat self p);
      }
    in
    it.Tast_iterator.expr it expr;
    acc
  in
  let bindings = ref [] in
  let init_count = ref 0 in
  let rec unwrap_lazy (e : Typedtree.expression) =
    match e.exp_desc with Typedtree.Texp_lazy e -> unwrap_lazy e | _ -> e
  in
  let is_r2_ctor (e : Typedtree.expression) =
    match (unwrap_lazy e).exp_desc with
    | Typedtree.Texp_apply (fn, _) -> (
        match canon_fn fn with Some n -> List.mem n r2_ctor_paths | None -> false)
    | _ -> false
  in
  let add_binding ~name ~loc ~(acc : walk_acc) ~str_const ~top_heads ~r2_ctor =
    let line, col = pos_of loc in
    bindings :=
      {
        name;
        bfile = file;
        bline = line;
        bcol = col;
        uses = List.rev acc.a_uses;
        calls = List.rev acc.a_calls;
        field_uses = List.rev acc.a_fields;
        captures = List.rev acc.a_caps;
        str_const;
        top_heads;
        r2_ctor;
      }
      :: !bindings
  in
  let rec items prefix its =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                let acc = walk_expr vb.vb_expr in
                let str_const =
                  match vb.vb_expr.exp_desc with
                  | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
                  | _ -> None
                in
                let r2_ctor = is_r2_ctor vb.vb_expr in
                match Typedtree.pat_bound_idents_full vb.vb_pat with
                | [] ->
                    (* [let () = ...] and friends: keep the body's edges
                       under a synthetic, unreferencable name. *)
                    incr init_count;
                    add_binding
                      ~name:(Printf.sprintf "%s.(init:%d)" prefix !init_count)
                      ~loc:vb.vb_pat.pat_loc ~acc ~str_const:None ~top_heads:[] ~r2_ctor
                | ids ->
                    List.iter
                      (fun (id, (sloc : string Asttypes.loc), ty) ->
                        add_binding
                          ~name:(prefix ^ "." ^ Ident.name id)
                          ~loc:sloc.loc ~acc ~str_const ~top_heads:(type_heads ~canon ty) ~r2_ctor)
                      ids)
              vbs
        | Typedtree.Tstr_eval (e, _) ->
            let acc = walk_expr e in
            incr init_count;
            add_binding
              ~name:(Printf.sprintf "%s.(init:%d)" prefix !init_count)
              ~loc:item.str_loc ~acc ~str_const:None ~top_heads:[] ~r2_ctor:false
        | Typedtree.Tstr_module mb -> (
            match mb.mb_id with
            | None -> ()
            | Some id -> (
                match strip_module mb.mb_expr with
                | Some s -> items (prefix ^ "." ^ Ident.name id) s.Typedtree.str_items
                | None -> ()))
        | Typedtree.Tstr_recmodule mbs ->
            List.iter
              (fun (mb : Typedtree.module_binding) ->
                match mb.mb_id with
                | None -> ()
                | Some id -> (
                    match strip_module mb.mb_expr with
                    | Some s -> items (prefix ^ "." ^ Ident.name id) s.Typedtree.str_items
                    | None -> ()))
              mbs
        | Typedtree.Tstr_type (_, tds) ->
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                let tname = prefix ^ "." ^ Ident.name td.typ_id in
                (match td.typ_type.Types.type_kind with
                | Types.Type_record (lds, _) ->
                    if List.exists (fun ld -> ld.Types.ld_mutable = Asttypes.Mutable) lds then
                      Hashtbl.replace types.mutable_records tname ()
                | _ -> ());
                match td.typ_type.Types.type_manifest with
                | Some ty -> (
                    match Types.get_desc ty with
                    | Types.Tconstr (p, _, _) -> (
                        match canon p with
                        | Some target when target <> tname ->
                            Hashtbl.replace types.aliases tname target
                        | _ -> ())
                    | _ -> ())
                | None -> ())
              tds
        | _ -> ())
      its
  in
  items mod_path str.Typedtree.str_items;
  { mod_path; mfile = file; bindings = List.rev !bindings }

(* --- cmt reading ------------------------------------------------------- *)

let read_cmt ~types ~path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | infos -> (
      match (infos.cmt_annots, infos.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some source when Filename.check_suffix source ".ml" -> (
          match canon_modname infos.cmt_modname with
          | Some mod_path -> Some (extract ~types ~mod_path ~file:source str)
          | None -> None)
      | _ -> None)

(* --- in-process typing for fixtures ------------------------------------ *)

module For_testing = struct
  let of_sources ~types units =
    let restore = !Clflags.dont_write_files in
    Clflags.dont_write_files := true;
    Fun.protect
      ~finally:(fun () -> Clflags.dont_write_files := restore)
      (fun () ->
        Compmisc.init_path ();
        let env0 = Compmisc.initial_env () in
        (* Units are typed in order; each one's signature is entered into
           the environment as a module, so later fixtures can reference
           earlier ones cross-"module" the way real compilation units
           do.  [mod_path] must be a valid module name for that to work. *)
        let rec go env acc = function
          | [] -> Ok (List.rev acc)
          | (mod_path, file, source) :: rest -> (
              let lexbuf = Lexing.from_string source in
              Location.init lexbuf file;
              match Parse.implementation lexbuf with
              | exception e -> Error (Printf.sprintf "%s: %s" file (Printexc.to_string e))
              | past -> (
                  match Typemod.type_structure env past with
                  | exception e -> Error (Printf.sprintf "%s: %s" file (Printexc.to_string e))
                  | tstr, sg, _, _, _ ->
                      let m = extract ~types ~mod_path ~file tstr in
                      let env =
                        Env.add_module
                          (Ident.create_persistent mod_path)
                          Types.Mp_present (Types.Mty_signature sg) env
                      in
                      go env (m :: acc) rest))
        in
        go env0 [] units)
end
