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

(* Versions.  [freeze] hands a snapshot the current root, sid map, tag
   list and synopsis and bumps [gen]; from then on the live side
   changes a node only through [own_root]/[own_child], which copy a
   node of an older generation (and its path from the root) first and
   relink the copy in the sid map.  Global positions are not on the
   nodes: [gps.(n.slot)] is node [n]'s, a flat array that [freeze]
   copies, so the insert/remove gp shift is a loop over unboxed ints
   that never touches a node.  Slots [0, n_slots) are in use or on
   [free_slots] (holding gp -1, which no shift moves); the root is
   slot 0, gp 0. *)
type t = {
  mode : mode;
  index_attributes : bool;
  registry : Tag_registry.t;
  mutable root : Er_node.t;
  mutable gen : int;
  mutable gps : int array;
  mutable n_slots : int;
  mutable free_slots : int list;
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
  metrics : metrics;
  frozen : bool;  (* immutable snapshot produced by [freeze] *)
}

let create ?(mode = Lazy_dynamic) ?(index_attributes = false) ?(backend = Storage_backend.Mem)
    () =
  let root = Er_node.make_root () in
  let sb = Sb_index.create ~backend () in
  Sb_index.insert sb 0 root;
  {
    mode;
    index_attributes;
    registry = Tag_registry.create ();
    root;
    gen = 0;
    gps = Array.make 64 0;
    n_slots = 1;
    free_slots = [];
    sb;
    sb_dirty = false;
    tag_list = Tag_list.create ();
    synopsis = Path_synopsis.create ();
    next_sid = 1;
    live_segments = 0;
    live_elements = 0;
    er_depth = 0;
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
let gp t (n : Er_node.t) = t.gps.(n.Er_node.slot)

(* A slot for a new segment at global position [gp]. *)
let alloc_slot t gp =
  match t.free_slots with
  | s :: rest ->
    t.free_slots <- rest;
    t.gps.(s) <- gp;
    s
  | [] ->
    let s = t.n_slots in
    if s = Array.length t.gps then begin
      let bigger = Array.make (2 * s) 0 in
      Array.blit t.gps 0 bigger 0 s;
      t.gps <- bigger
    end;
    t.gps.(s) <- gp;
    t.n_slots <- s + 1;
    s

let free_slot t slot =
  t.gps.(slot) <- -1;
  t.free_slots <- slot :: t.free_slots

(* Adds [delta] to every gp at or after [from] (the root's excepted):
   the gp shift of Figures 5 and 7. *)
let shift_gps t ~from delta =
  let gps = t.gps and shifted = ref 0 in
  for i = 1 to t.n_slots - 1 do
    let g = Array.unsafe_get gps i in
    if g >= from then begin
      Array.unsafe_set gps i (g + delta);
      incr shifted
    end
  done;
  t.metrics.gp_shifts <- t.metrics.gp_shifts + !shifted

(* The live root, changeable in place (copied first if a snapshot
   shares it). *)
let own_root t =
  let r = Er_node.own ~gen:t.gen t.root in
  if r != t.root then begin
    t.root <- r;
    Sb_index.replace t.sb 0 r
  end;
  r

(* Child [i] of the owned node [p], changeable in place. *)
let own_child t (p : Er_node.t) i =
  let c = Vec.get p.Er_node.children i in
  let c' = Er_node.own ~gen:t.gen c in
  if c' != c then begin
    Vec.set p.Er_node.children i c';
    Sb_index.replace t.sb c.Er_node.sid c'
  end;
  c'

(* [own_child] for a child known by its node rather than its index. *)
let own_child_node t (p : Er_node.t) (c : Er_node.t) =
  let kids = p.Er_node.children in
  let rec find i = if Vec.get kids i == c then i else find (i + 1) in
  own_child t p (find 0)

(* Brings the dirty tag lists back to gp order, resolving the merge's
   gp probes through the SB-tree.  Only for callers that have just made
   the SB-tree hold every live segment: the end of an LD insert and
   [prepare_for_query].  It reads the tree itself, not [node_of_sid]:
   an LD tree stays complete even while [mark_stale] flags it. *)
let sort_tag_lists t =
  if Tag_list.is_dirty t.tag_list then
    Tag_list.sort_all t.tag_list ~gp_of:(fun sid ->
        match Sb_index.find t.sb sid with Some n -> gp t n | None -> raise Not_found)

(* Every segment's context chain rebuilt from the ER-tree, handed to
   [f node ctx] in pre-order: the oracle for the chains recorded on the
   nodes and for the incremental synopsis (used by [load], [check] and
   the tests).  A child's context chain is its parent's chain plus the
   parent elements strictly containing the child's lp ([start < lp <
   stop], the predicate insertion uses).  Children are lp-sorted and
   the skeleton is start-sorted and properly nested, so one ancestor
   stack swept along the children yields every child's containing
   elements in O(parent elements + children): the stack holds the open
   elements, innermost on top, and an element whose stop is at or
   before the current lp can never contain a later child.
   ([Er_node.check] rejects trees breaking either order, so a hostile
   snapshot fails [load] whatever this returns for it.) *)
let iter_contexts (root : Er_node.t) f =
  let open Er_node in
  let stack = Vec.create () in
  let pop_until x =
    while (not (Vec.is_empty stack)) && (Vec.last stack).stop <= x do
      ignore (Vec.pop stack)
    done
  in
  let rec visit (n : Er_node.t) pctx =
    let children = Vec.to_array n.children in
    Vec.clear stack;
    let next = ref 0 in
    let ctxs =
      Array.map
        (fun (c : Er_node.t) ->
          while !next < Vec.length n.elems && (Vec.get n.elems !next).start < c.lp do
            let e = Vec.get n.elems !next in
            pop_until e.start;
            Vec.push stack e;
            incr next
          done;
          pop_until c.lp;
          let np = Array.length pctx in
          if Vec.is_empty stack then pctx
          else
            Array.init (np + Vec.length stack) (fun i ->
                if i < np then pctx.(i) else (Vec.get stack (i - np)).tid))
        children
    in
    Array.iteri
      (fun i (c : Er_node.t) ->
        f c ctxs.(i);
        visit c ctxs.(i))
      children
  in
  visit root [||]

let synopsis_rebuilt t =
  let syn = Path_synopsis.create () in
  iter_contexts t.root (fun n ctx ->
      ignore (Path_synopsis.add_segment syn ~ctx_tids:ctx ~elems:n.Er_node.elems));
  syn

(* --- insertion (Figure 5) ------------------------------------------ *)

(* Steps 1-4 of Figure 5 for one segment of an [insert_batch]: shift
   global positions, descend to the covering parent, derive the local
   position and base level, then build and link the new node.
   [elems_for] receives the computed base level and produces the
   segment's element skeleton.  The synopsis scan of the new elements
   hands each its path slot, and the columns are built from those. *)
let link_new_segment t ~gp ~text ~elems_for =
  let open Er_node in
  let len = String.length text in
  (* Step 1: shift the global position of every segment at or after the
     insertion point (AddNewSegment_Start). *)
  shift_gps t ~from:gp len;
  let gps = t.gps in
  (* Step 2: descend to the parent segment, growing lengths on the way
     (AddNewSegment).  A child still covers the insertion point iff
     [c.gp < gp < c.gp + c.len]: shifted children now start after [gp],
     and an unshifted child's length is not yet updated.  Every node on
     the way is owned: its length changes, and the parent's children. *)
  let rec descend s =
    t.metrics.nodes_visited <- t.metrics.nodes_visited + 1;
    s.len <- s.len + len;
    (* Only the last child starting before [gp] can cover it. *)
    let i = child_index_for_gp ~gps s gp in
    if i = 0 then s
    else begin
      let c = Vec.get s.children (i - 1) in
      let cgp = gps.(c.slot) in
      if cgp < gp && gp < cgp + c.len then descend (own_child t s (i - 1)) else s
    end
  in
  let parent = descend (own_root t) in
  (* Step 3: local position (Definition 2), converted to the parent's
     virtual coordinates. *)
  let before_len =
    Vec.fold_left
      (fun acc (c : Er_node.t) -> if gps.(c.slot) < gp then acc + c.len else acc)
      0 parent.children
  in
  let x_phys = gp - gps.(parent.slot) - before_len in
  (* When [x_phys] sits on a tombstone boundary, every virtual position
     across the gap is physically equivalent; clamp against the left
     sibling's lp so child local positions stay ordered. *)
  let at = child_index_for_gp ~gps parent gp in
  let lp =
    let vlow = virt_of_own_phys_before parent x_phys in
    if at = 0 then vlow else max vlow (Vec.get parent.children (at - 1)).lp
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
  let node =
    Er_node.make ~sid ~slot:(alloc_slot t gp) ~gen:t.gen ~parent_path:parent.path ~lp
      ~base_level ~text ~elems
  in
  Vec.insert_at parent.children at node;
  t.live_segments <- t.live_segments + 1;
  t.live_elements <- t.live_elements + Vec.length node.elems;
  (* Edges below the dummy root. *)
  let d = Array.length node.path - 1 in
  if d > t.er_depth then t.er_depth <- d;
  (* Path synopsis: the segment's context chain is its parent's chain
     plus the containing elements collected above, so the chain length
     equals [base_level].  It is immutable for the segment's lifetime:
     an enclosing element's extent covers the whole segment, so
     removing it removes the segment too.  One scan counts every
     element's path and returns its slot for the columns. *)
  node.ctx <-
    (match own_ctx with [] -> parent.ctx | own -> Array.append parent.ctx (Array.of_list own));
  index node ~pids:(Path_synopsis.add_segment t.synopsis ~ctx_tids:node.ctx ~elems:node.elems);
  node

(* One tag-list entry per distinct tag of the segment; its context
   chain must be set. *)
let iter_tag_entries (node : Er_node.t) f =
  let { Er_node.sid; path; ctx; columns; _ } = node in
  Er_node.iter_columns node (fun tid c ->
      f ~tid { Tag_list.sid; path; ctx; tags = columns.tids; count = Er_node.cols_length c })

let frozen_guard t who =
  if t.frozen then invalid_arg (who ^ ": frozen snapshot, updates go to the live log")

(* AddNewSegment (Figure 5), for a list of segments applied in order.
   A single insert is the one-edit case: there is no second body.
   [who] names the entry point in refusals. *)
let insert_edits ~who ?pool t edits =
  let open Er_node in
  frozen_guard t who;
  match edits with
  | [] -> []
  | _ ->
    let edits = Array.of_list edits in
    let b = Array.length edits in
    (* All-or-nothing up-front validation: every failure mode is
       decidable before anything is mutated.  Emptiness and
       well-formedness are per-fragment and pure; the gp bound of edit
       k is the document length after the k-1 edits before it — a
       running sum. *)
    let running = ref t.root.len in
    Array.iter
      (fun (gp, text) ->
        if text = "" then invalid_arg (who ^ ": empty segment");
        if gp < 0 || gp > !running then invalid_arg (who ^ ": gp out of bounds");
        running := !running + String.length text)
      edits;
    (* Parse and label every fragment first — both are pure, so this
       fans out over the domain pool.  Levels are relative to the
       fragment root and rebased once the insertion point is known;
       tag interning (shared registry) stays on the applying thread.
       A fragment's labels are two flat arrays, names and (start, stop,
       level) triples, counted in a first pass over the tree: its
       elements then cost four words while the batch waits, and its
       parse tree is garbage as soon as it is labelled. *)
    let labelled =
      let label i =
        let nodes = Lxu_xml.Parser.parse_fragment (snd edits.(i)) in
        let labels f = Lxu_xml.Tree.iter_labels ~attributes:t.index_attributes nodes f in
        let n = ref 0 in
        labels (fun ~name:_ ~start:_ ~stop:_ ~level:_ -> incr n);
        let names = Array.make !n "" and nums = Array.make (3 * !n) 0 in
        let k = ref 0 in
        labels (fun ~name ~start ~stop ~level ->
            names.(!k) <- name;
            nums.(3 * !k) <- start;
            nums.((3 * !k) + 1) <- stop;
            nums.((3 * !k) + 2) <- level;
            incr k);
        (names, nums)
      in
      match pool with
      | Some p when b > 1 -> Domain_pool.map p b label
      | _ -> Array.init b label
    in
    (* Serial ER-tree application (steps 1-4).  Index maintenance
       (steps 5-6) is deferred: instead of one SB-tree descent and one
       tag-list pass per segment, the batch pays one bulk merge into
       each. *)
    let sb_pairs = ref [] in
    let sids = ref [] in
    Array.iteri
      (fun k (gp, text) ->
        let node =
          link_new_segment t ~gp ~text ~elems_for:(fun ~base_level ->
              let names, nums = labelled.(k) in
              (* Interned in document order, the order tids are assigned. *)
              let tids = Array.map (Tag_registry.intern t.registry) names in
              let elems = Vec.create () in
              for j = 0 to Array.length names - 1 do
                Vec.push elems
                  {
                    start = nums.(3 * j);
                    stop = nums.((3 * j) + 1);
                    level = base_level + nums.((3 * j) + 2);
                    tid = tids.(j);
                  }
              done;
              elems)
        in
        (* Labelled: free them now, not at the end of a long batch. *)
        labelled.(k) <- ([||], [||]);
        let sid = node.sid in
        (match t.mode with
        | Lazy_dynamic -> sb_pairs := (sid, node) :: !sb_pairs
        | Lazy_static -> t.sb_dirty <- true);
        (* One tag-list entry per distinct tag in the segment (the
           element index of the paper is the node's own columns, built
           with it). *)
        iter_tag_entries node (fun ~tid entry -> Tag_list.append t.tag_list ~tid entry);
        t.metrics.segments_inserted <- t.metrics.segments_inserted + 1;
        sids := sid :: !sids)
      edits;
    (match t.mode with
    | Lazy_dynamic ->
      (* One SB-tree batch insert — sids were assigned in ascending
         order, so the pairs are already sorted — then one tag-list
         merge, restoring the LD query-ready invariant with one pass
         instead of B.  The merge resolves gps through the SB-tree the
         batch insert has just completed. *)
      Sb_index.insert_sorted_batch t.sb (Array.of_list (List.rev !sb_pairs));
      sort_tag_lists t
    | Lazy_static -> ());
    List.rev !sids

let insert_batch ?pool t edits = insert_edits ~who:"Update_log.insert_batch" ?pool t edits

let insert t ~gp text =
  match insert_edits ~who:"Update_log.insert" t [ (gp, text) ] with
  | [ sid ] -> sid
  | _ -> assert false

(* --- removal (Figure 7) -------------------------------------------- *)

(* Pre-removal extents [(child, gp, gp + len)] of [s]'s children. *)
let child_extents t (s : Er_node.t) =
  Vec.to_list s.Er_node.children
  |> List.map (fun (k : Er_node.t) -> (k, gp t k, gp t k + k.len))

(* The own text of [s] inside global range [x, y), as one virtual range
   [(vu, vv)] of [s]'s text, or [None] when children cover all of it.
   The own-text gaps of [x, y) form one contiguous virtual range: any
   child strictly between two gaps is fully covered by the removal, so
   it occupies zero virtual width.  Converting the outermost gap ends
   gives the range — per-gap tombstones would wrongly report an element
   spanning a removed child as split.  [extents] is [child_extents s]. *)
let own_virtual_range t (s : Er_node.t) extents x y =
  let first = ref None and last = ref (x, x) and cursor = ref x in
  let gap u v =
    if !first = None then first := Some u;
    last := (u, v)
  in
  List.iter
    (fun (_, a, b) ->
      if b > x && a < y then begin
        if a > !cursor then gap !cursor a;
        cursor := max !cursor (min b y)
      end)
    extents;
  if !cursor < y then gap !cursor y;
  match !first with
  | None -> None
  | Some u0 ->
    let local u =
      let before_len =
        List.fold_left (fun acc (_, a, b) -> if b <= u then acc + (b - a) else acc) 0 extents
      in
      u - gp t s - before_len
    in
    let ulast, vlast = !last in
    Some
      ( Er_node.virt_of_own_phys s (local u0),
        Er_node.virt_of_own_phys s (local ulast + (vlast - ulast)) )

(* Whether removing virtual range [vu, vv) would cut [e] in two. *)
let splits (e : Er_node.elem) vu vv =
  (e.start >= vu && e.start < vv && e.stop > vv) || (e.start < vu && e.stop > vu && e.stop <= vv)

(* Pure pre-check over the segments [remove] will cut: raises if the
   range would split an element, before anything is mutated — a failed
   removal must leave the log untouched. *)
let validate_remove t ~gp ~len =
  let rec walk (s : Er_node.t) x y =
    let extents = child_extents t s in
    (match own_virtual_range t s extents x y with
    | None -> ()
    | Some (vu, vv) ->
      Vec.iter
        (fun e ->
          if splits e vu vv then
            invalid_arg
              "Update_log.remove: range splits an element (not a well-formed fragment)")
        s.Er_node.elems);
    List.iter
      (fun (k, a, b) ->
        if b <= x || a >= y then ()
        else if x <= a && b <= y then ()
        else walk k (max a x) (min b y))
      extents
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
  let note_removed_elem sid tid =
    let key = (sid, tid) in
    Hashtbl.replace decrements key (1 + Option.value ~default:0 (Hashtbl.find_opt decrements key));
    elements_gone 1
  in
  (* The subtree's nodes stay as they are: snapshots may share them. *)
  let delete_subtree k =
    Er_node.iter_subtree k (fun n ->
        removed_sids := n.sid :: !removed_sids;
        Path_synopsis.remove_segment t.synopsis n;
        elements_gone (Vec.length n.elems);
        free_slot t n.slot;
        match t.mode with
        | Lazy_dynamic -> ignore (Sb_index.remove t.sb n.sid)
        | Lazy_static -> t.sb_dirty <- true)
  in
  (* Removes virtual range [vu, vv) of the owned [s]'s own text:
     tombstone it and drop the elements it covered.  [validate_remove]
     has refused every range that splits an element, so each element is
     either inside the range or untouched by it. *)
  let tombstone_own s vu vv =
    (* The skeleton and columns are replaced wholesale, not edited in
       place: copies of the node share both.  Each dropped element
       names its synopsis slot, so the decrement walks no path. *)
    remove_elements s ~vu ~vv (fun ~tid ~pid ->
        Path_synopsis.remove_pid t.synopsis ~tid pid;
        note_removed_elem s.sid tid);
    add_tombstone s vu vv
  in
  (* Recursive removal in pre-removal global coordinates; [x, y) is
     contained in the owned [s]'s span and [s] survives. *)
  let rec remove_range s x y =
    t.metrics.nodes_visited <- t.metrics.nodes_visited + 1;
    s.len <- s.len - (y - x);
    let snapshot = child_extents t s in
    (match own_virtual_range t s snapshot x y with
    | None -> ()
    | Some (vu, vv) -> tombstone_own s vu vv);
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
          let k = own_child_node t s k in
          remove_range k sx sy;
          (* Right intersection: the survivors of k start at the end of
             the removed range (pre-shift coordinates). *)
          if sx = a then t.gps.(k.slot) <- sy
        end)
      snapshot
  in
  remove_range (own_root t) gp y_end;
  (* Global shift (RemoveSegment_Start, applied once at the end so the
     recursion works in one coordinate system). *)
  shift_gps t ~from:y_end (-len);
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
  sort_tag_lists t

let node_of_sid t sid =
  if t.sb_dirty then failwith "Update_log.node_of_sid: stale SB-tree, call prepare_for_query";
  match Sb_index.find t.sb sid with Some n -> n | None -> raise Not_found

module Int_tbl = Hashtbl.Make (Int)

let cursors t =
  let memo = Int_tbl.create 64 in
  fun sid ->
    let tr, gp =
      match Int_tbl.find memo sid with
      | v -> v
      | exception Not_found ->
        let n = node_of_sid t sid in
        let v = (Er_node.translator n, gp t n) in
        Int_tbl.add memo sid v;
        v
    in
    Er_node.cursor tr ~gp

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
              let gstart, gstop = Er_node.global_extent ~gp:(gp t n) n e in
              acc := (gstart, gstop, e.level) :: !acc
            end)
          n.elems);
    List.sort compare !acc

(* --- sizes and checks ----------------------------------------------- *)

let sb_size_bytes t =
  let n = ref 0 in
  Er_node.iter_subtree t.root (fun node ->
      (* sid, gp, len, lp, ancestry pointer, child pointers, tombstones. *)
      n := !n + (8 * (8 + Vec.length node.Er_node.children + (2 * Vec.length node.Er_node.tombstones))));
  !n

let tag_list_size_bytes t = Tag_list.size_bytes t.tag_list

let columns_size_bytes t =
  let n = ref 0 in
  Er_node.iter_subtree t.root (fun node -> n := !n + Er_node.columns_size_bytes node);
  !n

let size_bytes t = sb_size_bytes t + tag_list_size_bytes t + columns_size_bytes t

let check t =
  Er_node.check ~gps:t.gps t.root;
  (* Slots: every live segment has its own, inside [0, n_slots) and off
     the free list; the root has slot 0. *)
  let used = Array.make t.n_slots false in
  List.iter (fun s -> used.(s) <- true) t.free_slots;
  Er_node.iter_subtree t.root (fun n ->
      let s = n.Er_node.slot in
      if s < 0 || s >= t.n_slots || used.(s) then
        failwith (Printf.sprintf "segment %d: slot %d is out of range, shared or free" n.Er_node.sid s);
      used.(s) <- true;
      if n.Er_node.gen > t.gen then
        failwith (Printf.sprintf "segment %d is of a future generation" n.Er_node.sid));
  if t.root.Er_node.slot <> 0 then failwith "root is not at slot 0";
  (* Every segment's columns are its tag-filtered skeleton, and the
     element counter agrees with the skeleton walk. *)
  let pids = Hashtbl.create 256 in
  Er_node.iter_subtree t.root (fun n ->
      match Er_node.skeleton_pids n with
      | Some p -> Hashtbl.replace pids n.Er_node.sid p
      | None ->
        failwith
          (Printf.sprintf "segment %d: element columns disagree with its skeleton"
             n.Er_node.sid));
  if t.live_elements <> element_count_walk t then
    failwith
      (Printf.sprintf "element counter says %d, skeleton walk says %d" t.live_elements
         (element_count_walk t));
  (* Tag-list counts agree with the skeletons (sorting first: LS lists
     may be dirty, and sorting does not change their contents); on the
     way, every element's tag is registered and no live sid has
     reached [next_sid]. *)
  let node_by_sid = Hashtbl.create 256 in
  Er_node.iter_subtree t.root (fun n -> Hashtbl.replace node_by_sid n.Er_node.sid n);
  Tag_list.sort_all t.tag_list ~gp_of:(fun sid -> gp t (Hashtbl.find node_by_sid sid));
  let counts = Hashtbl.create 64 in
  let n_tags = Tag_registry.count t.registry in
  let max_sid = ref 0 in
  Er_node.iter_subtree t.root (fun n ->
      if n.Er_node.sid > !max_sid then max_sid := n.Er_node.sid;
      Vec.iter
        (fun (e : Er_node.elem) ->
          if e.Er_node.tid < 0 || e.Er_node.tid >= n_tags then
            failwith
              (Printf.sprintf "segment %d: element tag id %d outside the %d-tag registry"
                 n.Er_node.sid e.Er_node.tid n_tags);
          let key = (e.Er_node.tid, n.Er_node.sid) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        n.Er_node.elems);
  if t.next_sid <= !max_sid then
    failwith (Printf.sprintf "next sid %d is not above the largest sid %d" t.next_sid !max_sid);
  (* Each entry carries its segment's context chain and a superset of
     its current tags (the restricted joins' Proposition-3 evidence). *)
  let listed = Hashtbl.create 64 in
  List.iter
    (fun tid ->
      Array.iter
        (fun (e : Tag_list.entry) ->
          (match Hashtbl.find_opt node_by_sid e.sid with
          | Some n
            when e.ctx <> n.Er_node.ctx
                 || not (Array.for_all (fun tid -> Array.mem tid e.tags) n.Er_node.columns.tids) ->
            failwith
              (Printf.sprintf "tag-list entry (tid %d, sid %d) carries a stale context or tag set"
                 tid e.sid)
          | Some _ | None (* a stale entry, reported below *) -> ());
          Hashtbl.replace listed (tid, e.sid) e.count)
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
  (* The context chains on the nodes and the incrementally maintained
     path synopsis agree with a from-scratch rebuild off the skeletons,
     and every column entry's slot holds the path the skeleton derives
     for its element, at the element's level. *)
  let rebuilt = Path_synopsis.create () in
  iter_contexts t.root (fun n ctx ->
      let sid = n.Er_node.sid in
      if n.Er_node.ctx <> ctx then
        failwith (Printf.sprintf "segment %d: context chain disagrees with a rebuild" sid);
      (try
         Path_synopsis.check_slots t.synopsis ~ctx_tids:ctx ~elems:n.Er_node.elems
           ~pids:(Hashtbl.find pids sid)
       with Failure msg -> failwith (Printf.sprintf "segment %d: %s" sid msg));
      ignore (Path_synopsis.add_segment rebuilt ~ctx_tids:ctx ~elems:n.Er_node.elems));
  if not (Path_synopsis.equal t.synopsis rebuilt) then
    failwith "path synopsis disagrees with a from-scratch rebuild"

(* --- frozen snapshots (MVCC read side) ------------------------------- *)

let freeze t =
  if t.frozen then invalid_arg "Update_log.freeze: already frozen";
  (* LS logs may be mid-laziness; bring derived structures current so
     the snapshot is query-ready without ever needing to mutate. *)
  prepare_for_query t;
  let snap =
    {
      t with
      registry = Tag_registry.clone t.registry;
      gps = Array.sub t.gps 0 t.n_slots;
      free_slots = [];
      sb = Sb_index.freeze t.sb ~iter:(Er_node.iter_subtree t.root);
      tag_list = Tag_list.freeze t.tag_list;
      synopsis = Path_synopsis.clone t.synopsis;
      metrics = { t.metrics with gp_shifts = t.metrics.gp_shifts };
      frozen = true;
    }
  in
  (* Every node now existing is shared with [snap]. *)
  t.gen <- t.gen + 1;
  snap

(* --- snapshots ------------------------------------------------------- *)

(* A line-oriented format with length-prefixed raw text blocks.
   Everything needed to reproduce behaviour exactly is stored:
   segments in pre-order with their immutable virtual data (text, lp,
   base level, elements, tombstones) plus current gp/len; derived
   structures are rebuilt on load.  The payload ends with a trailer
   line [crc <8 hex digits>], the CRC-32 of every byte before it:
   segment texts are stored raw, so without it a flipped byte would
   load as a different document. *)

let snapshot_magic = "LAZYXML-SNAPSHOT-2"

let save t oc =
  let open Er_node in
  (* Written piece by piece, checksummed on the way: no payload-sized
     buffer, so a checkpoint allocates nothing for the major heap. *)
  let crc = ref 0 in
  let emit s =
    output_string oc s;
    crc := Lxu_storage_core.Crc32.update !crc s ~pos:0 ~len:(String.length s)
  in
  let line fmt = Printf.ksprintf emit fmt in
  line "%s\n" snapshot_magic;
  line "mode %s\n" (match t.mode with Lazy_dynamic -> "LD" | Lazy_static -> "LS");
  line "attrs %b\n" t.index_attributes;
  line "next_sid %d\n" t.next_sid;
  line "tags %d\n" (Tag_registry.count t.registry);
  for tid = 0 to Tag_registry.count t.registry - 1 do
    line "%s\n" (Tag_registry.name t.registry tid)
  done;
  let count = ref 0 in
  iter_subtree t.root (fun _ -> incr count);
  line "segments %d\n" (!count - 1);
  iter_subtree t.root (fun n ->
      if not (is_root n) then begin
        let parent_sid = n.path.(Array.length n.path - 2) in
        line "seg %d %d %d %d %d %d %d %d %d\n" n.sid parent_sid (gp t n) n.len n.lp n.base_level
          n.orig_len (Vec.length n.tombstones) (Vec.length n.elems);
        emit n.text;
        emit "\n";
        Vec.iter (fun (a, b) -> line "t %d %d\n" a b) n.tombstones;
        Vec.iter (fun (e : elem) -> line "e %d %d %d %d\n" e.start e.stop e.level e.tid) n.elems
      end);
  Printf.fprintf oc "crc %08x\n" !crc

let full_check = check

let load ?(backend = Storage_backend.Mem) ic =
  let open Er_node in
  (* Every refusal is a [Failure] naming the byte offset — callers
     (Lazy_db.load, Recovery.read_snapshot) prepend the file path.
     Nothing in here may escape as End_of_file, Invalid_argument or
     Out_of_memory: a truncated or hostile snapshot must never look
     like a crash.  Two passes over the (seekable) channel: the first
     verifies the checksum trailer, the second parses, bounding every
     count and length by the payload bytes left before it allocates.
     Neither holds the whole file in memory. *)
  let base = pos_in ic in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "%s (snapshot byte %d)" msg (pos_in ic)))
      fmt
  in
  let line () = try input_line ic with End_of_file -> fail "snapshot truncated" in
  (match line () with
  | m when m = snapshot_magic -> ()
  | "LAZYXML-SNAPSHOT-1" ->
    fail "snapshot format 1 (no checksum) is no longer supported; re-save it"
  | _ -> fail "not a lazy-xml snapshot");
  (* Trailer: the last 13 bytes, [crc XXXXXXXX\n] (lowercase hex), over
     every byte before it. *)
  let limit = in_channel_length ic - 13 in
  if limit < pos_in ic then fail "snapshot truncated (no checksum trailer)";
  seek_in ic limit;
  let trailer = really_input_string ic 13 in
  let hex = String.sub trailer 4 8 in
  if not
       (String.sub trailer 0 4 = "crc "
       && trailer.[12] = '\n'
       && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) hex)
  then fail "snapshot truncated (no checksum trailer)";
  let stored = int_of_string ("0x" ^ hex) in
  seek_in ic base;
  let chunk = Bytes.create 65536 in
  let rec crc_to acc =
    let want = min (Bytes.length chunk) (limit - pos_in ic) in
    if want = 0 then acc
    else begin
      really_input ic chunk 0 want;
      (* The chunk is not mutated while [update] reads it. *)
      crc_to (Lxu_storage_core.Crc32.update acc (Bytes.unsafe_to_string chunk) ~pos:0 ~len:want)
    end
  in
  let actual = crc_to 0 in
  if stored <> actual then
    fail "snapshot checksum mismatch (stored %08x, computed %08x)" stored actual;
  seek_in ic base;
  let left () = limit - pos_in ic in
  let scan fmt k =
    let l = line () in
    (* Scanf signals a line that ends mid-format with End_of_file. *)
    try Scanf.sscanf l fmt k
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad snapshot line: %s" l
  in
  (* Each counted record takes at least one byte, so a count above the
     bytes left is a lie — refuse it before allocating for it. *)
  let bounded n what =
    if n < 0 then fail "negative %s %d" what n;
    if n > left () then fail "%s %d exceeds the %d bytes left" what n (left ());
    n
  in
  let input_exactly n what = really_input_string ic (bounded n what) in
  ignore (line ());
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
  let tag_count = bounded (scan "tags %d" Fun.id) "tag count" in
  for expected = 0 to tag_count - 1 do
    let tid = Tag_registry.intern t.registry (line ()) in
    if tid <> expected then fail "tag table out of order"
  done;
  let seg_count = bounded (scan "segments %d" Fun.id) "segment count" in
  let by_sid = Hashtbl.create (seg_count + 1) in
  Hashtbl.add by_sid 0 t.root;
  for _ = 1 to seg_count do
    let sid, parent_sid, gp, len, lp, base_level, orig_len, n_tomb, n_elems =
      scan "seg %d %d %d %d %d %d %d %d %d" (fun a b c d e f g h i ->
          (a, b, c, d, e, f, g, h, i))
    in
    if Hashtbl.mem by_sid sid then fail "segment sid %d appears twice" sid;
    let text = input_exactly orig_len "segment text length" in
    if left () < 1 || input_char ic <> '\n' then fail "missing newline after segment text";
    let tombs =
      List.init (bounded n_tomb "tombstone count") (fun _ -> scan "t %d %d" (fun a b -> (a, b)))
    in
    let elems = Vec.create () in
    for _ = 1 to bounded n_elems "element count" do
      let e = scan "e %d %d %d %d" (fun start stop level tid -> { start; stop; level; tid }) in
      if e.tid < 0 || e.tid >= tag_count then
        fail "segment %d: element tag id %d outside the %d-tag table" sid e.tid tag_count;
      Vec.push elems e
    done;
    let parent =
      match Hashtbl.find_opt by_sid parent_sid with
      | Some p -> p
      | None -> fail "segment %d arrives before its parent %d" sid parent_sid
    in
    let node =
      Er_node.make ~sid ~slot:(alloc_slot t gp) ~gen:t.gen ~parent_path:parent.path ~lp
        ~base_level ~text ~elems
    in
    node.len <- len;
    List.iter (Vec.push node.tombstones) tombs;
    Vec.push parent.children node;
    Hashtbl.add by_sid sid node
  done;
  if left () <> 0 then fail "%d unparsed bytes before the checksum trailer" (left ());
  (* Root length is the sum of its children (it has no own text). *)
  t.root.len <- Vec.fold_left (fun acc (c : Er_node.t) -> acc + c.len) 0 t.root.children;
  t.live_segments <- segment_count_walk t;
  t.live_elements <- element_count_walk t;
  (* Rebuild derived structures: context chains and the synopsis, each
     segment's columns from the slots its synopsis scan hands out, tag
     lists from the columns and chains, SB-tree from the ER-tree.  A
     hostile skeleton (out of order, overlapping) makes the columns
     wrong, never raises here: [full_check] refuses it below. *)
  iter_contexts t.root (fun n ctx ->
      n.ctx <- ctx;
      index n ~pids:(Path_synopsis.add_segment t.synopsis ~ctx_tids:ctx ~elems:n.elems));
  Er_node.iter_subtree t.root (fun n ->
      if not (is_root n) then
        iter_tag_entries n (fun ~tid entry -> Tag_list.append t.tag_list ~tid entry));
  t.sb_dirty <- true;
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
          gp = gp t c;
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
