(** Typed-tree loading for the semantic lint rules (R7..R11).

    Reads the [.cmt] artifacts dune produces (or types fixture sources
    in-process, for tests) and distills each module into a small IR of
    top-level bindings with canonical dotted references, calls, field
    uses, constructors built, [Domain.spawn] captures, and a registry of
    which type names carry mutable state. *)

(** One reference to a named value inside a binding body. *)
type use = { upath : string; uline : int; ucol : int }

type call = { fn : string; cline : int; ccol : int }

(** A record-field access, with the canonical name of the record type it
    projects from (so [chan.send] is attributable to [Transport.t] even
    through a type alias). *)
type field_use = { ftype : string; flabel : string; fline : int; fcol : int }

(** A free variable referenced inside a [Domain.spawn] closure argument,
    with the head constructor names of its type. *)
type capture = { cvar : string; cheads : string list; kline : int; kcol : int }

type binding = {
  name : string;  (** canonical dotted name, e.g. ["Engine.Pool.fold"] *)
  bfile : string;  (** repo-relative source path *)
  bline : int;
  bcol : int;
  uses : use list;
  calls : call list;
  field_uses : field_use list;
  captures : capture list;
  builds : use list;
      (** variant constructors the body builds, named after the module
          declaring their type (["Obsv.Phases.Tree_eq"]) *)
  top_heads : string list;  (** head constructor names of the binding's type *)
  r2_ctor : bool;  (** body is a direct R2-recognised state constructor *)
}

type modu = {
  mod_path : string;
  mfile : string;
  bindings : binding list;
  ctors : use list;  (** constructors its variant types declare, named as in [builds] *)
}

(** Mutable-state type registry accumulated across all loaded modules:
    records with [mutable] fields plus alias links from type manifests. *)
type types_info

val create_types : unit -> types_info

(** [is_mutable_type t name] — does [name] (after alias resolution)
    denote a type carrying mutable state: a builtin mutable ([ref],
    [array], [bytes], [Hashtbl.t], [Buffer.t], ...) or a record with a
    [mutable] field declared in any loaded module? *)
val is_mutable_type : types_info -> string -> bool

(** Mutable types sanctioned for cross-domain use ([Atomic.t],
    [Domain.DLS.key], [Mutex.t], ...). *)
val is_cross_domain_safe : types_info -> string -> bool

val resolve_alias : types_info -> string -> string

(** Canonical module path for a compilation-unit name as recorded in a
    cmt: dune mangling is undone ([Engine__Pool] -> ["Engine.Pool"]),
    executables lose their [Dune__exe] prefix, and generated wrapper
    units map to [None]. *)
val canon_modname : string -> string option

(** Load one [.cmt] file.  [None] when the artifact is not a user-source
    implementation (interfaces, generated wrapper units, packs). *)
val read_cmt : types:types_info -> path:string -> modu option

(** Test references and instruments. *)
module For_testing : sig
  (** Type a sequence of fixture units in order, each one's signature made
      visible to the later ones under its [mod_path] (which must therefore
      be a plain module name).  This is how tests build cross-module
      fixtures without writing [.cmt] files to disk. *)
  val of_sources :
    types:types_info ->
    (string * string * string) list ->
    (modu list, string) result
end
