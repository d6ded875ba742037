open Lxu_util
open Lxu_btree

module Sb = Bptree.Make (Int)

(* Paged repr: the tree maps sid -> slot into [nodes]; the skeleton
   nodes themselves always stay in memory (they hold the segments'
   element columns, which are not on pages yet).  Slots
   of removed or re-inserted sids leak until the next [load_sorted]
   rebuild (prepare_for_query, pack), which compacts the vector. *)
type repr =
  | Mem of Er_node.t Sb.t
  | Paged of { tree : Paged_bptree.t; mutable nodes : Er_node.t Vec.t }

type t = { mutable repr : repr; branching : int }

let slot_name = "sb"

let create ?(branching = 32) ?(backend = Storage_backend.Mem) () =
  let repr =
    match backend with
    | Storage_backend.Mem -> Mem (Sb.create ~branching ())
    | Storage_backend.Paged { store; attach } ->
      let tree = Paged_bptree.attach store ~slot:slot_name ~kw:1 ~vw:1 in
      (* The node vector is volatile: even on attach the mapping must
         be rebuilt (sid -> node) by the loader, so an attached tree
         is cleared here and reloaded via [load_sorted]. *)
      ignore attach;
      Paged_bptree.clear tree;
      Paged { tree; nodes = Vec.create () }
  in
  { repr; branching }

let of_sorted_mem ?(branching = 32) pairs =
  { repr = Mem (Sb.of_sorted ~branching pairs); branching }

let is_paged t = match t.repr with Mem _ -> false | Paged _ -> true

let length t =
  match t.repr with Mem tr -> Sb.length tr | Paged p -> Paged_bptree.length p.tree

let insert t sid node =
  match t.repr with
  | Mem tr -> Sb.insert tr sid node
  | Paged p ->
    let slot = Vec.length p.nodes in
    Vec.push p.nodes node;
    Paged_bptree.insert p.tree [| sid |] [| slot |]

let find t sid =
  match t.repr with
  | Mem tr -> Sb.find tr sid
  | Paged p ->
    let v = [| 0 |] in
    if Paged_bptree.find p.tree [| sid |] ~value:v then Some (Vec.get p.nodes v.(0))
    else None

let remove t sid =
  match t.repr with
  | Mem tr -> Sb.remove tr sid
  | Paged p -> Paged_bptree.remove p.tree [| sid |]

let load_sorted t pairs =
  match t.repr with
  | Mem _ -> t.repr <- Mem (Sb.of_sorted ~branching:t.branching pairs)
  | Paged p ->
    let nodes = Vec.create () in
    Array.iter (fun (_, node) -> Vec.push nodes node) pairs;
    p.nodes <- nodes;
    Paged_bptree.load_sorted p.tree ~n:(Array.length pairs) ~get:(fun i kbuf vbuf ->
        kbuf.(0) <- fst pairs.(i);
        vbuf.(0) <- i)

let insert_sorted_batch t pairs =
  match t.repr with
  | Mem tr -> Sb.insert_sorted_batch tr pairs
  | Paged p ->
    let base = Vec.length p.nodes in
    Array.iter (fun (_, node) -> Vec.push p.nodes node) pairs;
    Paged_bptree.insert_sorted_batch p.tree ~n:(Array.length pairs) ~get:(fun i kbuf vbuf ->
        kbuf.(0) <- fst pairs.(i);
        vbuf.(0) <- base + i)

let height t =
  match t.repr with Mem tr -> Sb.height tr | Paged p -> Paged_bptree.height p.tree

let size_bytes t =
  match t.repr with
  | Mem tr ->
    let internal, leaves = Sb.node_counts tr in
    (Sb.length tr * 2 * 8) + ((internal + leaves) * 64)
  | Paged p -> Paged_bptree.approx_bytes p.tree
