let scan_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]
let root_dirs = [ "perf" ]
let allow_file = "lint.allow"

let ends_with ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix

(* Source discovery: sorted traversal, skipping _build-style and hidden
   directories, so file order (hence report order) is stable. *)
let list_files ~root dirs =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.iter
      (fun name ->
        let rel' = rel ^ "/" ^ name in
        let abs' = Filename.concat root rel' in
        if Sys.is_directory abs' then begin
          if not (name = "" || name.[0] = '_' || name.[0] = '.') then walk rel'
        end
        else if ends_with ~suffix:".ml" name || ends_with ~suffix:".mli" name then acc := rel' :: !acc)
      entries
  in
  List.iter (fun dir -> if Sys.file_exists (Filename.concat root dir) then walk dir) dirs;
  List.sort String.compare !acc

let syntax_finding ~file (loc : Location.t) msg =
  let p = loc.Location.loc_start in
  Finding.v ~rule:"syntax" ~file ~line:(max 1 p.pos_lnum) ~col:(max 0 (p.pos_cnum - p.pos_bol)) msg

let parse_structure ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception Syntaxerr.Error e ->
      Error (syntax_finding ~file (Syntaxerr.location_of_error e) "syntax error")
  | exception Lexer.Error (_, loc) -> Error (syntax_finding ~file loc "lexer error")

let parse_interface ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.interface lexbuf with
  | (_ : Parsetree.signature) -> Ok ()
  | exception Syntaxerr.Error e ->
      Error (syntax_finding ~file (Syntaxerr.location_of_error e) "syntax error")
  | exception Lexer.Error (_, loc) -> Error (syntax_finding ~file loc "lexer error")

let lint_source ?(registry = Obsv.Phases.mem) ~path source =
  if ends_with ~suffix:".mli" path then
    match parse_interface ~file:path source with Ok () -> [] | Error f -> [ f ]
  else
    match parse_structure ~file:path source with
    | Ok structure -> Rules.check_structure ~registry ~file:path structure
    | Error f -> [ f ]

type report = { files : int; typed_modules : int; findings : Finding.t list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run ?(root = ".") ?(typed = true) () =
  if not (Sys.file_exists (Filename.concat root "lib")) then
    Error (Printf.sprintf "lint root %S has no lib/ directory (pass --root)" root)
  else
    let allow =
      let path = Filename.concat root allow_file in
      if not (Sys.file_exists path) then Ok []
      else
        match Allow.parse ~known:Rules.rule_ids (read_file path) with
        | Ok entries -> Ok entries
        | Error e -> Error (Printf.sprintf "%s: %s" allow_file e)
    in
    match allow with
    | Error _ as e -> e
    | Ok allow -> (
        let files = list_files ~root scan_dirs in
        let per_file =
          List.concat_map
            (fun file -> lint_source ~path:file (read_file (Filename.concat root file)))
            files
        in
        (* The typed pass needs build artifacts; a missing build is a
           cannot-run error (exit 2), not a clean report — a gate that
           silently skips its strongest rules is worse than one that
           fails loudly. *)
        let typed_result =
          if typed then Typed.run ~root ~files:(files @ list_files ~root root_dirs) ()
          else Ok (0, [])
        in
        match typed_result with
        | Error e -> Error e
        | Ok (typed_modules, typed_findings) ->
            (* [root_dirs] files only root the call graph (R11): they
               are not scanned, so nothing is reported in them. *)
            let scanned = Hashtbl.create 256 in
            List.iter (fun f -> Hashtbl.replace scanned f ()) files;
            let typed_findings =
              List.filter (fun (f : Finding.t) -> Hashtbl.mem scanned f.file) typed_findings
            in
            let findings =
              per_file @ Rules.check_mli_coverage ~files @ typed_findings
              |> List.filter (fun (f : Finding.t) ->
                     not (Allow.allows allow ~rule:f.rule ~file:f.file))
              |> List.sort Finding.compare
            in
            Ok { files = List.length files; typed_modules; findings })
