(* Whole-repo call graph over the Cmt_load IR.

   Nodes are canonical binding names; there is an edge a -> b when a's
   body references b and b is a binding we loaded (references into the
   stdlib or other external libraries are kept on the binding itself as
   uses, not as graph edges).  All adjacency lists are sorted and
   deduplicated so every traversal — and therefore every report — is
   deterministic regardless of load order. *)

type t = {
  by_name : (string, Cmt_load.binding) Hashtbl.t;
  succ : (string, string list) Hashtbl.t;
  pred : (string, string list) Hashtbl.t;
  names : string list;  (* sorted *)
}

let sort_uniq = List.sort_uniq String.compare

let build (modus : Cmt_load.modu list) =
  let by_name = Hashtbl.create 512 in
  List.iter
    (fun (m : Cmt_load.modu) ->
      List.iter (fun (b : Cmt_load.binding) -> Hashtbl.replace by_name b.Cmt_load.name b) m.bindings)
    modus;
  let succ = Hashtbl.create 512 and pred = Hashtbl.create 512 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (m : Cmt_load.modu) ->
      List.iter
        (fun (b : Cmt_load.binding) ->
          List.iter
            (fun (u : Cmt_load.use) ->
              if u.upath <> b.name && Hashtbl.mem by_name u.upath then begin
                add succ b.name u.upath;
                add pred u.upath b.name
              end)
            b.uses)
        m.bindings)
    modus;
  Hashtbl.iter (fun k v -> Hashtbl.replace succ k (sort_uniq v)) (Hashtbl.copy succ);
  Hashtbl.iter (fun k v -> Hashtbl.replace pred k (sort_uniq v)) (Hashtbl.copy pred);
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) by_name [] |> List.sort String.compare
  in
  { by_name; succ; pred; names }

let binding g name = Hashtbl.find_opt g.by_name name
let names g = g.names

let bindings g =
  List.filter_map (fun n -> Hashtbl.find_opt g.by_name n) g.names

let succs g name = Option.value ~default:[] (Hashtbl.find_opt g.succ name)
let preds g name = Option.value ~default:[] (Hashtbl.find_opt g.pred name)

(* Deterministic BFS from [roots] (visited in sorted order) following
   [next], never expanding nodes for which [skip] holds.  Returns the
   BFS forest as a parent map; roots are their own parents.  Because the
   queue is FIFO over sorted adjacency, the parent chain of any node is
   the lexicographically-least shortest path to it — stable across
   runs. *)
let reach ~next ~skip roots =
  let parent = Hashtbl.create 256 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if (not (Hashtbl.mem parent r)) && not (skip r) then begin
        Hashtbl.replace parent r r;
        Queue.push r q
      end)
    (sort_uniq roots);
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    List.iter
      (fun s ->
        if (not (Hashtbl.mem parent s)) && not (skip s) then begin
          Hashtbl.replace parent s n;
          Queue.push s q
        end)
      (next n)
  done;
  parent

let reach_fwd g ~skip roots = reach ~next:(succs g) ~skip roots
let reach_bwd g ~skip roots = reach ~next:(preds g) ~skip roots

(* Root-to-node path through a [reach] parent map. *)
let chain parent node =
  let rec go acc n =
    match Hashtbl.find_opt parent n with
    | Some p when p = n -> n :: acc
    | Some p -> go (n :: acc) p
    | None -> n :: acc
  in
  go [] node
