open Lxu_util
open Lxu_btree

type mode = Lazy_dynamic | Lazy_static

type metrics = {
  mutable gp_shifts : int;
  mutable nodes_visited : int;
  mutable segments_inserted : int;
  mutable segments_removed : int;
  mutable elements_removed : int;
}

type t = {
  mode : mode;
  index_attributes : bool;
  registry : Tag_registry.t;
  root : Er_node.t;
  mutable sb : Sb_index.t;
  mutable sb_dirty : bool;
  tag_list : Tag_list.t;
  mutable synopsis : Path_synopsis.t;
  mutable next_sid : int;
  mutable live_segments : int;  (* segments alive, dummy root excluded *)
  mutable live_elements : int;  (* skeleton elements over all segments *)
  mutable er_depth : int;
  (* Deepest ER chain (edges below the dummy root): a high-water mark
     bumped on insert and re-anchored to the exact value by every
     [fragmented_subtrees] scan (removes never lower it on their own). *)
  branching : int;
  metrics : metrics;
  frozen : bool;  (* immutable snapshot produced by [freeze] *)
}

let create ?(mode = Lazy_dynamic) ?(index_attributes = false) ?(branching = 32)
    ?(backend = Storage_backend.Mem) () =
  let root = Er_node.make_root () in
  let sb = Sb_index.create ~branching ~backend () in
  Sb_index.insert sb 0 root;
  {
    mode;
    index_attributes;
    registry = Tag_registry.create ();
    root;
    sb;
    sb_dirty = false;
    tag_list = Tag_list.create ();
    synopsis = Path_synopsis.create ();
    next_sid = 1;
    live_segments = 0;
    live_elements = 0;
    er_depth = 0;
    branching;
    metrics =
      {
        gp_shifts = 0;
        nodes_visited = 0;
        segments_inserted = 0;
        segments_removed = 0;
        elements_removed = 0;
      };
    frozen = false;
  }

let mode t = t.mode
let indexes_attributes t = t.index_attributes
let doc_length t = t.root.Er_node.len

let segment_count t = t.live_segments

(* Reference implementation of {!segment_count}: the full ER-tree walk
   the live counter replaced.  [check] (and the tests) assert the two
   agree. *)
let segment_count_walk t =
  let n = ref 0 in
  Er_node.iter_subtree t.root (fun _ -> incr n);
  !n - 1

(* Exact deepest ER chain (edges below the dummy root), re-anchoring
   the incremental high-water in [t.er_depth]. *)
let refresh_er_depth t =
  let deepest = ref 0 in
  let rec walk d (n : Er_node.t) =
    if d > !deepest then deepest := d;
    Vec.iter (fun k -> walk (d + 1) k) n.Er_node.children
  in
  walk 0 t.root;
  t.er_depth <- !deepest;
  !deepest

let element_count t = t.live_elements

(* Reference implementation of {!element_count}, checked like
   [segment_count_walk]. *)
let element_count_walk t =
  let n = ref 0 in
  Er_node.iter_subtree t.root (fun node -> n := !n + Vec.length node.Er_node.elems);
  !n

let is_frozen t = t.frozen
let root t = t.root
let registry t = t.registry
let metrics t = t.metrics
let tag_list t = t.tag_list
let synopsis t = t.synopsis

(* gp resolution used to keep tag lists sorted; walks the ER-tree
   structures already in memory, independent of SB-tree freshness. *)
let gp_table t =
  let table = Hashtbl.create 256 in
  Er_node.iter_subtree t.root (fun n -> Hashtbl.replace table n.Er_node.sid n.Er_node.gp);
  fun sid -> Hashtbl.find table sid

(* From-scratch path synopsis of an ER-tree: the incremental oracle
   (used by [load], [check] and the tests).  Context chains come from
   the current skeletons with the same strict-containment predicate
   insertion uses; pre-order traversal guarantees a parent's chain is
   recorded before its children need it. *)
let synopsis_of_tree (root : Er_node.t) =
  let open Er_node in
  let syn = Path_synopsis.create () in
  let ctxs = Hashtbl.create 64 in
  Hashtbl.add ctxs root.sid [||];
  Er_node.iter_subtree root (fun n ->
      if not (is_root n) then begin
        let parent = match n.parent with Some p -> p | None -> root in
        let pctx = try Hashtbl.find ctxs parent.sid with Not_found -> [||] in
        let own =
          Vec.fold_left
            (fun acc (e : elem) ->
              if e.start < n.lp && e.stop > n.lp then e.tid :: acc else acc)
            [] parent.elems
        in
        let ctx =
          match own with
          | [] -> pctx
          | _ -> Array.append pctx (Array.of_list (List.rev own))
        in
        Hashtbl.add ctxs n.sid ctx;
        Path_synopsis.add_segment syn ~sid:n.sid ~ctx_tids:ctx ~elems:n.elems
      end);
  syn

let synopsis_rebuilt t = synopsis_of_tree t.root

(* --- insertion (Figure 5) ------------------------------------------ *)

(* Steps 1-4 of Figure 5, shared by [insert] and [insert_batch]: shift
   global positions, descend to the covering parent, derive the local
   position and base level, then build and link the new node.
   [elems_for] receives the computed base level and produces the
   segment's element skeletons. *)
let link_new_segment t ~gp ~text ~elems_for =
  let open Er_node in
  let len = String.length text in
  (* Step 1: shift the global position of every segment at or after the
     insertion point (AddNewSegment_Start). *)
  Er_node.iter_subtree t.root (fun m ->
      if (not (is_root m)) && m.gp >= gp then begin
        m.gp <- m.gp + len;
        t.metrics.gp_shifts <- t.metrics.gp_shifts + 1
      end);
  (* Step 2: descend to the parent segment, growing lengths on the way
     (AddNewSegment).  A child still covers the insertion point iff
     [c.gp < gp < c.gp + c.len]: shifted children now start after [gp],
     and an unshifted child's length is not yet updated. *)
  let rec descend s =
    t.metrics.nodes_visited <- t.metrics.nodes_visited + 1;
    s.len <- s.len + len;
    let covering =
      (* Only the last child starting before [gp] can cover it. *)
      let i = child_index_for_gp s gp in
      if i = 0 then None
      else begin
        let c = Vec.get s.children (i - 1) in
        if c.gp < gp && gp < c.gp + c.len then Some c else None
      end
    in
    match covering with Some c -> descend c | None -> s
  in
  let parent = descend t.root in
  (* Step 3: local position (Definition 2), converted to the parent's
     virtual coordinates. *)
  let before_len =
    Vec.fold_left
      (fun acc (c : Er_node.t) -> if c.gp < gp then acc + c.len else acc)
      0 parent.children
  in
  let x_phys = gp - parent.gp - before_len in
  (* When [x_phys] sits on a tombstone boundary, every virtual position
     across the gap is physically equivalent; clamp against the left
     sibling's lp so child local positions stay ordered. *)
  let lp =
    let vlow = virt_of_own_phys_before parent x_phys in
    let prev_lp =
      let i = child_index_for_gp parent gp in
      if i = 0 then vlow else (Vec.get parent.children (i - 1)).lp
    in
    max vlow prev_lp
  in
  (* One early-exit prefix scan (the [depth_at] predicate) yields both
     the splice depth and the tids of the parent elements strictly
     containing the splice point — the segment's own slice of its
     context chain, collected here so the synopsis bookkeeping below
     never re-walks [parent.elems]. *)
  let base_level, own_ctx =
    let depth = ref parent.base_level in
    let own = ref [] in
    let i = ref 0 in
    let n = Vec.length parent.elems in
    while !i < n && (Vec.get parent.elems !i).start < lp do
      let e = Vec.get parent.elems !i in
      if e.stop > lp then begin
        incr depth;
        own := e.tid :: !own
      end;
      incr i
    done;
    (!depth, List.rev !own)
  in
  (* Step 4: build and link the node. *)
  let sid = t.next_sid in
  t.next_sid <- t.next_sid + 1;
  let elems = elems_for ~base_level in
  let node = Er_node.make ~sid ~gp ~lp ~base_level ~text ~elems in
  node.parent <- Some parent;
  Vec.insert_at parent.children (child_index_for_gp parent gp) node;
  t.live_segments <- t.live_segments + 1;
  t.live_elements <- t.live_elements + Vec.length node.elems;
  let rec chain d (n : Er_node.t) =
    match n.parent with None -> d | Some p -> chain (d + 1) p
  in
  let d = chain 0 node in
  if d > t.er_depth then t.er_depth <- d;
  (* Path synopsis: the segment's context chain is its parent's chain
     plus the containing elements collected above, so the chain length
     equals [base_level].  It is immutable for the segment's lifetime:
     an enclosing element's extent covers the whole segment, so
     removing it removes the segment too. *)
  let ctx_tids =
    let pctx =
      if is_root parent then [||] else Path_synopsis.context t.synopsis ~sid:parent.sid
    in
    match own_ctx with
    | [] -> pctx
    | own -> Array.append pctx (Array.of_list own)
  in
  Path_synopsis.add_segment t.synopsis ~sid ~ctx_tids ~elems:node.elems;
  node

(* One tag-list entry per distinct tag of the segment. *)
let iter_tag_entries (node : Er_node.t) f =
  let path = Er_node.path node in
  Er_node.iter_columns node (fun tid c ->
      f ~tid { Tag_list.sid = node.Er_node.sid; path; count = Er_node.cols_length c })

let frozen_guard t who =
  if t.frozen then invalid_arg (who ^ ": frozen snapshot, updates go to the live log")

let insert t ~gp text =
  let open Er_node in
  frozen_guard t "Update_log.insert";
  if text = "" then invalid_arg "Update_log.insert: empty segment";
  if gp < 0 || gp > t.root.len then invalid_arg "Update_log.insert: gp out of bounds";
  let nodes = Lxu_xml.Parser.parse_fragment text in
  let node =
    link_new_segment t ~gp ~text ~elems_for:(fun ~base_level ->
        let elems = ref [] in
        Lxu_xml.Tree.iter_labels ~attributes:t.index_attributes ~base_level nodes
          (fun ~name ~start ~stop ~level ->
            elems :=
              { start; stop; level; tid = Tag_registry.intern t.registry name } :: !elems);
        List.rev !elems)
  in
  let sid = node.sid in
  (* Step 5: SB-tree (kept fresh only under LD). *)
  (match t.mode with
  | Lazy_dynamic -> Sb_index.insert t.sb sid node
  | Lazy_static -> t.sb_dirty <- true);
  (* Step 6: tag-list, one path entry per distinct tag in the segment
     (the element index of the paper is the node's own columns, built
     with it). *)
  let gp_of = lazy (gp_table t) in
  iter_tag_entries node (fun ~tid entry ->
      match t.mode with
      | Lazy_dynamic -> Tag_list.add_sorted t.tag_list ~tid entry ~gp_of:(Lazy.force gp_of)
      | Lazy_static -> Tag_list.append t.tag_list ~tid entry);
  t.metrics.segments_inserted <- t.metrics.segments_inserted + 1;
  sid

(* --- batched insertion --------------------------------------------- *)

let insert_batch ?pool t edits =
  let open Er_node in
  frozen_guard t "Update_log.insert_batch";
  match edits with
  | [] -> []
  | _ ->
    let edits = Array.of_list edits in
    let b = Array.length edits in
    (* All-or-nothing up-front validation: every failure mode of
       [insert] is decidable before anything is mutated.  Emptiness and
       well-formedness are per-fragment and pure; the gp bound of edit
       k is the document length after the k-1 edits before it — a
       running sum. *)
    let running = ref t.root.len in
    Array.iter
      (fun (gp, text) ->
        if text = "" then invalid_arg "Update_log.insert_batch: empty segment";
        if gp < 0 || gp > !running then
          invalid_arg "Update_log.insert_batch: gp out of bounds";
        running := !running + String.length text)
      edits;
    (* Parse and label every fragment first — parsing is pure, so this
       fans out over the domain pool.  Levels are extracted relative to
       the fragment root and rebased once the insertion point is known;
       tag interning (shared registry) stays on the applying thread. *)
    let label i =
      let _, text = edits.(i) in
      let nodes = Lxu_xml.Parser.parse_fragment text in
      let acc = ref [] in
      Lxu_xml.Tree.iter_labels ~attributes:t.index_attributes ~base_level:0 nodes
        (fun ~name ~start ~stop ~level -> acc := (name, start, stop, level) :: !acc);
      Array.of_list (List.rev !acc)
    in
    let labelled =
      match pool with
      | Some p when b > 1 -> Domain_pool.map p b label
      | _ -> Array.init b label
    in
    (* Serial ER-tree application.  Index maintenance is deferred:
       instead of B SB-tree descents and B tag-list passes, the batch
       pays one bulk merge into each. *)
    let sb_pairs = ref [] in
    let sids = ref [] in
    Array.iteri
      (fun k (gp, text) ->
        let node =
          link_new_segment t ~gp ~text ~elems_for:(fun ~base_level ->
              Array.to_list labelled.(k)
              |> List.map (fun (name, start, stop, level) ->
                     {
                       start;
                       stop;
                       level = base_level + level;
                       tid = Tag_registry.intern t.registry name;
                     }))
        in
        let sid = node.sid in
        (match t.mode with
        | Lazy_dynamic -> sb_pairs := (sid, node) :: !sb_pairs
        | Lazy_static -> t.sb_dirty <- true);
        iter_tag_entries node (fun ~tid entry -> Tag_list.append t.tag_list ~tid entry);
        t.metrics.segments_inserted <- t.metrics.segments_inserted + 1;
        sids := sid :: !sids)
      edits;
    (match t.mode with
    | Lazy_dynamic ->
      (* One SB-tree batch insert — sids were assigned in ascending
         order, so the pairs are already sorted — and one tag-list
         merge over a single gp table, restoring the LD query-ready
         invariant with one pass instead of B. *)
      Sb_index.insert_sorted_batch t.sb (Array.of_list (List.rev !sb_pairs));
      Tag_list.sort_all t.tag_list ~gp_of:(gp_table t)
    | Lazy_static -> ());
    List.rev !sids

(* --- removal (Figure 7) -------------------------------------------- *)

(* Pure pre-check mirroring [remove]'s gap computation: raises if the
   range would split an element, before anything is mutated — a failed
   removal must leave the log untouched. *)
let validate_remove t ~gp ~len =
  let open Er_node in
  let rec walk (s : Er_node.t) x y =
    let snapshot = Vec.to_list s.children |> List.map (fun k -> (k, k.gp, k.gp + k.len)) in
    let own_gaps =
      let gaps = ref [] in
      let cursor = ref x in
      List.iter
        (fun (_, a, b) ->
          if b <= x || a >= y then ()
          else begin
            if a > !cursor then gaps := (!cursor, a) :: !gaps;
            cursor := max !cursor (min b y)
          end)
        snapshot;
      if !cursor < y then gaps := (!cursor, y) :: !gaps;
      List.rev !gaps
    in
    (match own_gaps with
    | [] -> ()
    | (u0, v0) :: _ ->
      let local u =
        let before_len =
          List.fold_left (fun acc (_, a, b) -> if b <= u then acc + (b - a) else acc) 0 snapshot
        in
        u - s.gp - before_len
      in
      let ulast, vlast = match List.rev own_gaps with last :: _ -> last | [] -> (u0, v0) in
      let vu = virt_of_own_phys s (local u0) in
      let vv = virt_of_own_phys s (local ulast + (vlast - ulast)) in
      Vec.iter
        (fun (e : elem) ->
          let crosses =
            (e.start >= vu && e.start < vv && e.stop > vv)
            || (e.start < vu && e.stop > vu && e.stop <= vv)
          in
          if crosses then
            invalid_arg
              "Update_log.remove: range splits an element (not a well-formed fragment)")
        s.elems);
    List.iter
      (fun (k, a, b) ->
        if b <= x || a >= y then ()
        else if x <= a && b <= y then ()
        else walk k (max a x) (min b y))
      snapshot
  in
  walk t.root gp (gp + len)

let remove t ~gp ~len =
  let open Er_node in
  frozen_guard t "Update_log.remove";
  if len <= 0 then invalid_arg "Update_log.remove: non-positive length";
  if gp < 0 || gp + len > t.root.len then invalid_arg "Update_log.remove: range out of bounds";
  validate_remove t ~gp ~len;
  let y_end = gp + len in
  let removed_sids = ref [] in
  (* (sid, tid, count) decrements for partially affected segments. *)
  let decrements = Hashtbl.create 8 in
  let elements_gone k =
    t.metrics.elements_removed <- t.metrics.elements_removed + k;
    t.live_elements <- t.live_elements - k
  in
  let note_removed_elem sid (e : elem) =
    let key = (sid, e.tid) in
    Hashtbl.replace decrements key (1 + Option.value ~default:0 (Hashtbl.find_opt decrements key));
    elements_gone 1
  in
  let delete_subtree k =
    Er_node.iter_subtree k (fun n ->
        removed_sids := n.sid :: !removed_sids;
        Path_synopsis.remove_segment t.synopsis ~sid:n.sid ~elems:n.elems;
        elements_gone (Vec.length n.elems);
        match t.mode with
        | Lazy_dynamic -> ignore (Sb_index.remove t.sb n.sid)
        | Lazy_static -> t.sb_dirty <- true)
  in
  (* Removes virtual range [vu, vv) of [s]'s own text: tombstone it and
     drop the elements it covered. *)
  let tombstone_own s vu vv =
    (* Synopsis decrements need the pre-removal skeleton (surviving
       elements still enclose the removed ones during the scan);
       [validate_remove] already rejected element-splitting ranges, so
       this runs only on edits that will complete. *)
    Path_synopsis.remove_matching ~until:vv t.synopsis ~sid:s.sid ~elems:s.elems
      ~removed:(fun (e : elem) -> e.start >= vu && e.stop <= vv);
    (* Collect covered elements first; reject element-splitting edits. *)
    let kept = Vec.create () in
    Vec.iter
      (fun (e : elem) ->
        let fully_inside = e.start >= vu && e.stop <= vv in
        let crosses =
          (e.start >= vu && e.start < vv && e.stop > vv)
          || (e.start < vu && e.stop > vu && e.stop <= vv)
        in
        if crosses then
          invalid_arg "Update_log.remove: range splits an element (not a well-formed fragment)";
        if fully_inside then note_removed_elem s.sid e else Vec.push kept e)
      s.elems;
    (* Replace the skeleton and columns wholesale instead of editing in
       place: frozen snapshots share both with the live tree.  A gap
       over own text alone (no element inside) leaves them as they
       are. *)
    if Vec.length kept <> Vec.length s.elems then set_elems s kept;
    add_tombstone s vu vv
  in
  (* Recursive removal in pre-removal global coordinates; [x, y) is
     contained in [s]'s span and [s] survives. *)
  let rec remove_range s x y =
    t.metrics.nodes_visited <- t.metrics.nodes_visited + 1;
    s.len <- s.len - (y - x);
    (* Pre-removal child extents. *)
    let snapshot =
      Vec.to_list s.children |> List.map (fun k -> (k, k.gp, k.gp + k.len))
    in
    (* Own-text bytes of [x, y): the parts not covered by children, in
       left-to-right order. *)
    let own_gaps =
      let gaps = ref [] in
      let cursor = ref x in
      List.iter
        (fun (_, a, b) ->
          if b <= x || a >= y then ()
          else begin
            if a > !cursor then gaps := (!cursor, a) :: !gaps;
            cursor := max !cursor (min b y)
          end)
        snapshot;
      if !cursor < y then gaps := (!cursor, y) :: !gaps;
      List.rev !gaps
    in
    (* The gaps form one contiguous virtual range: any child strictly
       between two gaps is fully covered by the removal, so it occupies
       zero virtual width.  Convert the extreme points to virtual
       coordinates and tombstone once — per-gap tombstones would
       wrongly report an element spanning a removed child as split. *)
    (match own_gaps with
    | [] -> ()
    | (u0, v0) :: _ ->
      let local u =
        let before_len =
          List.fold_left (fun acc (_, a, b) -> if b <= u then acc + (b - a) else acc) 0 snapshot
        in
        u - s.gp - before_len
      in
      let ulast, vlast =
        match List.rev own_gaps with last :: _ -> last | [] -> (u0, v0)
      in
      let vu = virt_of_own_phys s (local u0) in
      let vv = virt_of_own_phys s (local ulast + (vlast - ulast)) in
      tombstone_own s vu vv);
    (* Children cases of §3.3. *)
    List.iter
      (fun (k, a, b) ->
        if b <= x || a >= y then () (* untouched here; global shift follows *)
        else if x <= a && b <= y then begin
          (* Case 2: k is contained in the removed range. *)
          let idx = ref (-1) in
          Vec.iteri (fun i c -> if c == k then idx := i) s.children;
          ignore (Vec.remove_at s.children !idx);
          delete_subtree k
        end
        else begin
          (* Cases 1 and 3: recurse with the clipped range (the
             auxiliary segment of Figure 7). *)
          let sx = max a x and sy = min b y in
          remove_range k sx sy;
          (* Right intersection: the survivors of k start at the end of
             the removed range (pre-shift coordinates). *)
          if sx = a then k.gp <- sy
        end)
      snapshot
  in
  remove_range t.root gp y_end;
  (* Global shift (RemoveSegment_Start, applied once at the end so the
     recursion works in one coordinate system). *)
  Er_node.iter_subtree t.root (fun m ->
      if (not (is_root m)) && m.gp >= y_end then begin
        m.gp <- m.gp - len;
        t.metrics.gp_shifts <- t.metrics.gp_shifts + 1
      end);
  (* Tag-list maintenance. *)
  List.iter (fun sid -> Tag_list.remove_segment t.tag_list ~sid) !removed_sids;
  Hashtbl.iter
    (fun (sid, tid) count -> Tag_list.decrement t.tag_list ~tid ~sid ~by:count)
    decrements;
  t.live_segments <- t.live_segments - List.length !removed_sids;
  t.metrics.segments_removed <- t.metrics.segments_removed + List.length !removed_sids

(* --- query-side accessors ------------------------------------------ *)

let mark_stale t =
  frozen_guard t "Update_log.mark_stale";
  t.sb_dirty <- true;
  Tag_list.mark_dirty t.tag_list

let prepare_for_query t =
  if t.sb_dirty then begin
    (* Bulk SB rebuild: collect (sid, node) pairs, sort by sid, and
       bottom-up load — one O(n log n) sort instead of n tree
       descents with splits. *)
    let pairs = Vec.create () in
    Er_node.iter_subtree t.root (fun n -> Vec.push pairs (n.Er_node.sid, n));
    let pairs = Vec.to_array pairs in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) pairs;
    Sb_index.load_sorted t.sb pairs;
    t.sb_dirty <- false
  end;
  if Tag_list.is_dirty t.tag_list then Tag_list.sort_all t.tag_list ~gp_of:(gp_table t)

let node_of_sid t sid =
  if t.sb_dirty then failwith "Update_log.node_of_sid: stale SB-tree, call prepare_for_query";
  match Sb_index.find t.sb sid with Some n -> n | None -> raise Not_found

module Int_tbl = Hashtbl.Make (Int)

let translators t =
  let memo = Int_tbl.create 64 in
  fun sid ->
    match Int_tbl.find memo sid with
    | tr -> tr
    | exception Not_found ->
      let tr = Er_node.translator (node_of_sid t sid) in
      Int_tbl.add memo sid tr;
      tr

let segments_for_tag t ~tag =
  match Tag_registry.find t.registry tag with
  | None -> [||]
  | Some tid -> Tag_list.entries t.tag_list ~tid

let elements_cols t ~tid ~sid = Er_node.cols (node_of_sid t sid) ~tid

(* --- materialization oracle ---------------------------------------- *)

let materialize t =
  let buf = Buffer.create (doc_length t + 16) in
  let rec emit (n : Er_node.t) =
    (* Emits live own text of virtual range [u, v). *)
    let emit_own u v =
      let cursor = ref u in
      Vec.iter
        (fun (a, b) ->
          if b > u && a < v then begin
            if a > !cursor then Buffer.add_substring buf n.text !cursor (a - !cursor);
            cursor := max !cursor (min b v)
          end)
        n.tombstones;
      if !cursor < v then Buffer.add_substring buf n.text !cursor (v - !cursor)
    in
    let cursor = ref 0 in
    Vec.iter
      (fun (c : Er_node.t) ->
        emit_own !cursor c.lp;
        emit c;
        cursor := c.lp)
      n.children;
    emit_own !cursor n.orig_len
  in
  emit t.root;
  Buffer.contents buf

let global_elements t ~tag =
  match Tag_registry.find t.registry tag with
  | None -> []
  | Some tid ->
    let acc = ref [] in
    Er_node.iter_subtree t.root (fun n ->
        Vec.iter
          (fun (e : Er_node.elem) ->
            if e.tid = tid then begin
              let gstart, gstop = Er_node.global_extent n e in
              acc := (gstart, gstop, e.level) :: !acc
            end)
          n.elems);
    List.sort compare !acc

(* --- sizes and checks ----------------------------------------------- *)

let sb_size_bytes t =
  let n = ref 0 in
  Er_node.iter_subtree t.root (fun node ->
      (* sid, gp, len, lp, parent pointer, child pointers, tombstones. *)
      n := !n + (8 * (8 + Vec.length node.Er_node.children + (2 * Vec.length node.Er_node.tombstones))));
  !n

let tag_list_size_bytes t = Tag_list.size_bytes t.tag_list

let columns_size_bytes t =
  let n = ref 0 in
  Er_node.iter_subtree t.root (fun node -> n := !n + Er_node.columns_size_bytes node);
  !n

let size_bytes t = sb_size_bytes t + tag_list_size_bytes t + columns_size_bytes t

let check t =
  Er_node.check t.root;
  (* Every segment's columns are its tag-filtered skeleton, and the
     element counter agrees with the skeleton walk. *)
  Er_node.iter_subtree t.root (fun n ->
      if not (Er_node.columns_agree n) then
        failwith
          (Printf.sprintf "segment %d: element columns disagree with its skeleton"
             n.Er_node.sid));
  if t.live_elements <> element_count_walk t then
    failwith
      (Printf.sprintf "element counter says %d, skeleton walk says %d" t.live_elements
         (element_count_walk t));
  (* Tag-list counts agree with the skeletons (sorting first: LS lists
     may be dirty, and sorting does not change their contents). *)
  Tag_list.sort_all t.tag_list ~gp_of:(gp_table t);
  let counts = Hashtbl.create 64 in
  Er_node.iter_subtree t.root (fun n ->
      Vec.iter
        (fun (e : Er_node.elem) ->
          let key = (e.Er_node.tid, n.Er_node.sid) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        n.Er_node.elems);
  let listed = Hashtbl.create 64 in
  List.iter
    (fun tid ->
      Array.iter
        (fun (e : Tag_list.entry) -> Hashtbl.replace listed (tid, e.sid) e.count)
        (Tag_list.entries t.tag_list ~tid))
    (Tag_list.tids t.tag_list);
  Hashtbl.iter
    (fun key count ->
      match Hashtbl.find_opt listed key with
      | Some c when c = count -> ()
      | Some c ->
        failwith
          (Printf.sprintf "tag-list count for (tid %d, sid %d) is %d, skeleton says %d"
             (fst key) (snd key) c count)
      | None ->
        failwith (Printf.sprintf "tag-list misses (tid %d, sid %d)" (fst key) (snd key)))
    counts;
  Hashtbl.iter
    (fun key _ ->
      if not (Hashtbl.mem counts key) then
        failwith (Printf.sprintf "tag-list has stale entry (tid %d, sid %d)" (fst key) (snd key)))
    listed;
  (* SB-tree agrees with the ER-tree under LD. *)
  if t.mode = Lazy_dynamic && not t.sb_dirty then begin
    let live = ref 0 in
    Er_node.iter_subtree t.root (fun n ->
        incr live;
        match Sb_index.find t.sb n.Er_node.sid with
        | Some m when m == n -> ()
        | _ -> failwith (Printf.sprintf "SB-tree misses segment %d" n.Er_node.sid));
    if Sb_index.length t.sb <> !live then failwith "SB-tree holds stale segments"
  end;
  (* The live segment counter agrees with the ER-tree walk. *)
  if t.live_segments <> segment_count_walk t then
    failwith
      (Printf.sprintf "segment counter says %d, ER-tree walk says %d" t.live_segments
         (segment_count_walk t));
  (* The incrementally maintained path synopsis agrees with a
     from-scratch rebuild off the skeletons. *)
  if not (Path_synopsis.equal t.synopsis (synopsis_of_tree t.root)) then
    failwith "path synopsis disagrees with a from-scratch rebuild"

(* --- frozen snapshots (MVCC read side) ------------------------------- *)

let freeze t =
  if t.frozen then invalid_arg "Update_log.freeze: already frozen";
  (* LS logs may be mid-laziness; bring derived structures current so
     the clone is query-ready without ever needing to mutate. *)
  prepare_for_query t;
  let root = Er_node.clone t.root in
  let pairs = Vec.create () in
  Er_node.iter_subtree root (fun n -> Vec.push pairs (n.Er_node.sid, n));
  let pairs = Vec.to_array pairs in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) pairs;
  let sb = Sb_index.of_sorted_mem ~branching:t.branching pairs in
  {
    mode = t.mode;
    index_attributes = t.index_attributes;
    registry = Tag_registry.clone t.registry;
    root;
    sb;
    sb_dirty = false;
    tag_list = Tag_list.clone t.tag_list;
    synopsis = Path_synopsis.clone t.synopsis;
    next_sid = t.next_sid;
    live_segments = t.live_segments;
    live_elements = t.live_elements;
    er_depth = t.er_depth;
    branching = t.branching;
    metrics =
      {
        gp_shifts = t.metrics.gp_shifts;
        nodes_visited = t.metrics.nodes_visited;
        segments_inserted = t.metrics.segments_inserted;
        segments_removed = t.metrics.segments_removed;
        elements_removed = t.metrics.elements_removed;
      };
    frozen = true;
  }

(* --- snapshots ------------------------------------------------------- *)

(* A line-oriented format with length-prefixed raw text blocks.
   Everything needed to reproduce behaviour exactly is stored:
   segments in pre-order with their immutable virtual data (text, lp,
   base level, elements, tombstones) plus current gp/len; derived
   structures are rebuilt on load. *)

let snapshot_magic = "LAZYXML-SNAPSHOT-1"

let save t oc =
  let open Er_node in
  Printf.fprintf oc "%s\n" snapshot_magic;
  Printf.fprintf oc "mode %s\n"
    (match t.mode with Lazy_dynamic -> "LD" | Lazy_static -> "LS");
  Printf.fprintf oc "attrs %b\n" t.index_attributes;
  Printf.fprintf oc "next_sid %d\n" t.next_sid;
  Printf.fprintf oc "tags %d\n" (Tag_registry.count t.registry);
  for tid = 0 to Tag_registry.count t.registry - 1 do
    Printf.fprintf oc "%s\n" (Tag_registry.name t.registry tid)
  done;
  let count = ref 0 in
  iter_subtree t.root (fun _ -> incr count);
  Printf.fprintf oc "segments %d\n" (!count - 1);
  iter_subtree t.root (fun n ->
      if not (is_root n) then begin
        let parent_sid =
          match n.parent with Some p -> p.sid | None -> failwith "orphan segment"
        in
        Printf.fprintf oc "seg %d %d %d %d %d %d %d %d %d\n" n.sid parent_sid n.gp n.len
          n.lp n.base_level n.orig_len (Vec.length n.tombstones) (Vec.length n.elems);
        output_string oc n.text;
        output_char oc '\n';
        Vec.iter (fun (a, b) -> Printf.fprintf oc "t %d %d\n" a b) n.tombstones;
        Vec.iter
          (fun (e : elem) -> Printf.fprintf oc "e %d %d %d %d\n" e.start e.stop e.level e.tid)
          n.elems
      end)

let full_check = check

let load ?(backend = Storage_backend.Mem) ic =
  let open Er_node in
  (* Every refusal is a [Failure] naming the byte offset — callers
     (Lazy_db.load, Recovery.read_snapshot) prepend the file path.
     Nothing in here may escape as End_of_file or Invalid_argument:
     a truncated or hostile snapshot must never look like a crash. *)
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "%s (snapshot byte %d)" msg (pos_in ic)))
      fmt
  in
  let line () = try input_line ic with End_of_file -> fail "snapshot truncated" in
  let scan fmt k =
    let l = line () in
    (* Scanf signals a line that ends mid-format with End_of_file. *)
    try Scanf.sscanf l fmt k
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad snapshot line: %s" l
  in
  let input_exactly n what =
    if n < 0 then fail "negative %s length %d" what n;
    try really_input_string ic n
    with End_of_file -> fail "snapshot truncated reading %d-byte %s" n what
  in
  if line () <> snapshot_magic then fail "not a lazy-xml snapshot";
  let mode =
    scan "mode %s" (function
      | "LD" -> Lazy_dynamic
      | "LS" -> Lazy_static
      | m -> fail "unknown mode %s" m)
  in
  let index_attributes = scan "attrs %B" Fun.id in
  let next_sid = scan "next_sid %d" Fun.id in
  let t = create ~mode ~index_attributes ~backend () in
  t.next_sid <- next_sid;
  let tag_count = scan "tags %d" Fun.id in
  for expected = 0 to tag_count - 1 do
    let tid = Tag_registry.intern t.registry (line ()) in
    if tid <> expected then fail "tag table out of order"
  done;
  let seg_count = scan "segments %d" Fun.id in
  if seg_count < 0 then fail "negative segment count %d" seg_count;
  let by_sid = Hashtbl.create (seg_count + 1) in
  Hashtbl.add by_sid 0 t.root;
  for _ = 1 to seg_count do
    let sid, parent_sid, gp, len, lp, base_level, orig_len, n_tomb, n_elems =
      scan "seg %d %d %d %d %d %d %d %d %d" (fun a b c d e f g h i ->
          (a, b, c, d, e, f, g, h, i))
    in
    if n_tomb < 0 || n_elems < 0 then fail "negative record count in segment %d" sid;
    let text = input_exactly orig_len "segment text" in
    (match input_char ic with
    | '\n' -> ()
    | _ -> fail "missing newline after segment text"
    | exception End_of_file -> fail "snapshot truncated");
    let tombs =
      List.init n_tomb (fun _ -> scan "t %d %d" (fun a b -> (a, b)))
    in
    let elems =
      List.init n_elems (fun _ ->
          scan "e %d %d %d %d" (fun start stop level tid -> { start; stop; level; tid }))
    in
    let node = Er_node.make ~sid ~gp ~lp ~base_level ~text ~elems in
    node.len <- len;
    List.iter (Vec.push node.tombstones) tombs;
    let parent =
      match Hashtbl.find_opt by_sid parent_sid with
      | Some p -> p
      | None -> fail "segment %d arrives before its parent %d" sid parent_sid
    in
    node.parent <- Some parent;
    Vec.push parent.children node;
    Hashtbl.add by_sid sid node
  done;
  (* Root length is the sum of its children (it has no own text). *)
  t.root.len <- Vec.fold_left (fun acc (c : Er_node.t) -> acc + c.len) 0 t.root.children;
  t.live_segments <- segment_count_walk t;
  t.live_elements <- element_count_walk t;
  (* Rebuild derived structures: tag lists from the segments' columns
     (built with each node above), SB-tree from the ER-tree. *)
  Er_node.iter_subtree t.root (fun n ->
      if not (is_root n) then
        iter_tag_entries n (fun ~tid entry -> Tag_list.append t.tag_list ~tid entry));
  t.sb_dirty <- true;
  t.synopsis <- synopsis_of_tree t.root;
  ignore (refresh_er_depth t);
  prepare_for_query t;
  full_check t;
  t

(* --- fragmentation statistics (maintenance scheduler input) ---------- *)

type frag_stats = {
  live_segments : int;
  dead_segments : int;
  er_depth : int;
  dirty_tags : int;
  doc_bytes : int;
  max_tag_segments : int;
}

let frag_stats (t : t) =
  {
    live_segments = t.live_segments;
    dead_segments = t.metrics.segments_removed;
    er_depth = t.er_depth;
    dirty_tags = Tag_list.dirty_count t.tag_list;
    doc_bytes = t.root.Er_node.len;
    max_tag_segments = Tag_list.max_segments t.tag_list;
  }

type subtree_frag = { sid : int; gp : int; len : int; segments : int; depth : int }

let fragmented_subtrees (t : t) =
  let subtrees = ref [] in
  let deepest = ref 0 in
  Vec.iter
    (fun (c : Er_node.t) ->
      let segs = ref 0 and dmax = ref 0 in
      let rec walk d (n : Er_node.t) =
        incr segs;
        if d > !dmax then dmax := d;
        Vec.iter (fun k -> walk (d + 1) k) n.Er_node.children
      in
      walk 1 c;
      if !dmax > !deepest then deepest := !dmax;
      subtrees :=
        {
          sid = c.Er_node.sid;
          gp = c.Er_node.gp;
          len = c.Er_node.len;
          segments = !segs;
          depth = !dmax;
        }
        :: !subtrees)
    t.root.Er_node.children;
  (* The walk just measured every chain, so re-anchor the insert-side
     high-water (removes and packs never lower it on their own). *)
  t.er_depth <- !deepest;
  List.sort
    (fun a b ->
      match Int.compare b.segments a.segments with
      | 0 -> Int.compare b.depth a.depth
      | c -> c)
    !subtrees
