open Lxu_util
open Lxu_btree

(* The in-memory repr: a persistent 32-way radix trie over sids (small
   ints, issued in order).  A lookup reads one array per level,
   log32(largest sid) levels; a change copies the arrays on one
   root-to-leaf path, so every version stays valid and [freeze] shares
   the current one in O(1).  [vacant] (compared physically) marks an
   empty cell. *)
module Trie = struct
  type trie = Empty | Node of trie array | Leaf of Er_node.t array

  (* Keys below [1 lsl (shift + 5)] fit: [shift] is the bit offset of
     the root's index. *)
  type t = { root : trie; shift : int }

  let vacant = Er_node.make_root ()
  let empty = { root = Empty; shift = 0 }

  let find t key =
    if key < 0 || key lsr (t.shift + 5) <> 0 then None
    else
      let rec go n shift =
        match n with
        | Empty -> None
        | Node a -> go (Array.unsafe_get a ((key lsr shift) land 31)) (shift - 5)
        | Leaf a ->
          let v = Array.unsafe_get a (key land 31) in
          if v == vacant then None else Some v
      in
      go t.root t.shift

  (* [n] with [key]'s cell set to [v] ([vacant] clears it). *)
  let rec set n shift key v =
    let i = (key lsr shift) land 31 in
    match n with
    | Leaf a ->
      let a = Array.copy a in
      a.(i) <- v;
      Leaf a
    | Node a ->
      let a = Array.copy a in
      a.(i) <- set a.(i) (shift - 5) key v;
      Node a
    | Empty when shift = 0 ->
      let a = Array.make 32 vacant in
      a.(i) <- v;
      Leaf a
    | Empty ->
      let a = Array.make 32 Empty in
      a.(i) <- set Empty (shift - 5) key v;
      Node a

  let rec add t key v =
    if key lsr (t.shift + 5) = 0 then { t with root = set t.root t.shift key v }
    else
      (* One level more: the old root becomes the new root's first child. *)
      let root =
        match t.root with
        | Empty -> Empty
        | r -> Node (Array.init 32 (fun i -> if i = 0 then r else Empty))
      in
      add { root; shift = t.shift + 5 } key v

  let remove t key = { t with root = set t.root t.shift key vacant }

  let length t =
    let rec go = function
      | Empty -> 0
      | Node a -> Array.fold_left (fun acc n -> acc + go n) 0 a
      | Leaf a -> Array.fold_left (fun acc v -> if v == vacant then acc else acc + 1) 0 a
    in
    go t.root
end

(* Paged repr: the tree maps sid -> slot into [nodes]; the skeleton
   nodes themselves always stay in memory (they hold the segments'
   element columns, which are not on pages yet).  Slots of removed
   sids leak until the next [load_sorted] rebuild (prepare_for_query,
   pack), which compacts the vector. *)
type repr =
  | Mem of Trie.t
  | Paged of { tree : Paged_bptree.t; mutable nodes : Er_node.t Vec.t }

type t = { mutable repr : repr }

let create ?pstore () =
  match pstore with
  | None -> { repr = Mem Trie.empty }
  | Some store ->
    { repr = Paged { tree = Paged_bptree.create store ~kw:1 ~vw:1; nodes = Vec.create () } }

let release t = match t.repr with Mem _ -> () | Paged p -> Paged_bptree.clear p.tree

let length t =
  match t.repr with Mem m -> Trie.length m | Paged p -> Paged_bptree.length p.tree

let insert t sid node =
  match t.repr with
  | Mem m -> t.repr <- Mem (Trie.add m sid node)
  | Paged p ->
    let slot = Vec.length p.nodes in
    Vec.push p.nodes node;
    Paged_bptree.insert p.tree [| sid |] [| slot |]

let replace t sid node =
  match t.repr with
  | Mem m -> if Option.is_some (Trie.find m sid) then t.repr <- Mem (Trie.add m sid node)
  | Paged p ->
    let v = [| 0 |] in
    if Paged_bptree.find p.tree [| sid |] ~value:v then Vec.set p.nodes v.(0) node

let find t sid =
  match t.repr with
  | Mem m -> Trie.find m sid
  | Paged p ->
    let v = [| 0 |] in
    if Paged_bptree.find p.tree [| sid |] ~value:v then Some (Vec.get p.nodes v.(0)) else None

let remove t sid =
  match t.repr with
  | Mem m ->
    let present = Option.is_some (Trie.find m sid) in
    if present then t.repr <- Mem (Trie.remove m sid);
    present
  | Paged p -> Paged_bptree.remove p.tree [| sid |]

let load_sorted t pairs =
  match t.repr with
  | Mem _ ->
    t.repr <- Mem (Array.fold_left (fun m (sid, node) -> Trie.add m sid node) Trie.empty pairs)
  | Paged p ->
    let nodes = Vec.create () in
    Array.iter (fun (_, node) -> Vec.push nodes node) pairs;
    p.nodes <- nodes;
    Paged_bptree.load_sorted p.tree ~n:(Array.length pairs) ~get:(fun i kbuf vbuf ->
        kbuf.(0) <- fst pairs.(i);
        vbuf.(0) <- i)

let insert_sorted_batch t pairs =
  match t.repr with
  | Mem m -> t.repr <- Mem (Array.fold_left (fun m (sid, node) -> Trie.add m sid node) m pairs)
  | Paged p ->
    let base = Vec.length p.nodes in
    Array.iter (fun (_, node) -> Vec.push p.nodes node) pairs;
    Paged_bptree.insert_sorted_batch p.tree ~n:(Array.length pairs) ~get:(fun i kbuf vbuf ->
        kbuf.(0) <- fst pairs.(i);
        vbuf.(0) <- base + i)

let freeze t ~iter =
  match t.repr with
  | Mem m -> { repr = Mem m }
  | Paged _ ->
    let m = ref Trie.empty in
    iter (fun (n : Er_node.t) -> m := Trie.add !m n.Er_node.sid n);
    { repr = Mem !m }
