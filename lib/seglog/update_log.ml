open Lxu_util

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
   nodes: [map] holds them, and [freeze] copies it. *)
type t = {
  mode : mode;
  index_attributes : bool;
  registry : Tag_registry.t;
  mutable root : Er_node.t;
  mutable gen : int;
  map : Seg_map.t;
  mutable sb : Sb_index.t;
  mutable sb_dirty : bool;
  tag_list : Tag_list.t;
  mutable synopsis : Path_synopsis.t;
  mutable next_sid : int;
  mutable live_segments : int;  (* segments alive, dummy root excluded *)
  mutable live_elements : int;  (* column entries over all segments *)
  mutable er_depth : int;
  (* Deepest ER chain (edges below the dummy root): a high-water mark
     bumped on insert and re-anchored to the exact value by every
     [fragmented_subtrees] scan (removes never lower it on their own). *)
  metrics : metrics;
  frozen : bool;  (* immutable snapshot produced by [freeze] *)
}

let create ?(mode = Lazy_dynamic) ?(index_attributes = false) ?pstore () =
  let root = Er_node.make_root () in
  let sb = Sb_index.create ?pstore () in
  Sb_index.insert sb 0 root;
  {
    mode;
    index_attributes;
    registry = Tag_registry.create ();
    root;
    gen = 0;
    map = Seg_map.create ();
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
  Er_node.iter_subtree t.root (fun node -> n := !n + Er_node.element_count node);
  !n

let is_frozen t = t.frozen
let root t = t.root
let registry t = t.registry
let metrics t = t.metrics
let tag_list t = t.tag_list
let synopsis t = t.synopsis
let seg_map t = t.map

(* The gp shift of Figures 5 and 7, counted. *)
let shift t ~from delta =
  t.metrics.gp_shifts <- t.metrics.gp_shifts + Seg_map.shift t.map ~from delta

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

(* A segment's gp by sid, through the SB-tree: the [gp_of] of the
   tag-list merge and of the keyed tag-list removal.  It reads the tree
   itself, not [node_of_sid], which refuses a tree [mark_stale] or an
   LS write has flagged.  The tree holds every sid of every tag list's
   main run even then: a main run takes entries only in a merge, which
   runs only once the tree holds every live segment (the end of an LD
   insert, [prepare_for_query]; [check] merges nothing); a removed
   segment leaves every list; and a copy made by [own_child] keeps its
   node's slot. *)
let sb_gp t sid =
  match Sb_index.find t.sb sid with Some n -> Seg_map.gp t.map n | None -> raise Not_found

(* Brings the dirty tag lists back to gp order.  Only for callers that
   have just made the SB-tree hold every live segment: the end of an LD
   insert and [prepare_for_query]. *)
let sort_tag_lists t =
  if Tag_list.is_dirty t.tag_list then Tag_list.sort_all t.tag_list ~gp_of:(sb_gp t)

(* Every segment's context chain rebuilt from the ER-tree, handed to
   [f node ctx] in pre-order: the oracle for the chains recorded on the
   nodes and for the incremental synopsis (used by [load], [check] and
   the tests).  A child's context chain is its parent's chain plus the
   parent elements strictly containing the child's lp ([start < lp <
   stop]).  [f] returns the segment's elements in document order as
   [(tids, starts, stops)], arrays it already holds for its own use, and
   the segment's children are placed by sweeping those, so a walk
   merges each segment's columns at most once.  Children are
   lp-sorted and the document-order walk is properly nested, so one
   ancestor stack swept along the children yields every child's
   containing elements in O(parent elements + children).  Tags and
   extents only, never slots, so it checks them.  ([Er_node.check]
   rejects trees breaking either order, so a hostile snapshot fails
   [load] whatever this returns for it.) *)
let iter_contexts (root : Er_node.t) f =
  let stops = Vec.create () and tids = Vec.create () in
  let pop_until x =
    while (not (Vec.is_empty stops)) && Vec.last stops <= x do
      ignore (Vec.pop stops);
      ignore (Vec.pop tids)
    done
  in
  let rec visit (n : Er_node.t) pctx (e_tids, e_starts, e_stops) =
    let children = Vec.to_array n.Er_node.children in
    let ctxs = Array.make (Array.length children) pctx in
    let next = ref 0 in
    (* Settles the children hooked at or before [x]: the stack then
       holds the elements starting before each one's lp. *)
    let settle x =
      while !next < Array.length children && children.(!next).Er_node.lp <= x do
        pop_until children.(!next).Er_node.lp;
        if not (Vec.is_empty tids) then ctxs.(!next) <- Array.append pctx (Vec.to_array tids);
        incr next
      done
    in
    Vec.clear stops;
    Vec.clear tids;
    if Array.length children > 0 then
      Array.iteri
        (fun j start ->
          settle start;
          pop_until start;
          Vec.push stops e_stops.(j);
          Vec.push tids e_tids.(j))
        e_starts;
    settle max_int;
    Array.iteri (fun i c -> visit c ctxs.(i) (f c ctxs.(i))) children
  in
  visit root [||] ([||], [||], [||])

(* A segment's elements in document order as parallel arrays: tags,
   starts, stops and slots. *)
let flat_elements (n : Er_node.t) =
  let k = Er_node.element_count n in
  let tids = Array.make k 0 and starts = Array.make k 0 in
  let stops = Array.make k 0 and pids = Array.make k 0 in
  let j = ref 0 in
  Er_node.iter_elements n (fun ~tid ~start ~stop ~pid ->
      tids.(!j) <- tid;
      starts.(!j) <- start;
      stops.(!j) <- stop;
      pids.(!j) <- pid;
      incr j);
  (tids, starts, stops, pids)

let synopsis_rebuilt t =
  let syn = Path_synopsis.create () in
  iter_contexts t.root (fun n ctx ->
      let tids, starts, stops, _ = flat_elements n in
      ignore (Path_synopsis.add_segment syn ~ctx_tids:ctx ~tids ~starts ~stops);
      (tids, starts, stops));
  syn

(* --- insertion (Figure 5) ------------------------------------------ *)

(* Steps 1-4 of Figure 5 for one segment of an [insert_batch]: shift
   global positions, descend to the covering parent, derive the local
   position and base level, then build and link the new node.  The
   segment's elements come in document order as parallel arrays of
   tags, starts and stops; the synopsis scan hands each its path slot,
   and the columns are built from those. *)
let link_new_segment t ~gp ~text ~tids ~starts ~stops =
  let open Er_node in
  let len = String.length text in
  (* Step 1: shift the global position of every segment at or after the
     insertion point (AddNewSegment_Start). *)
  shift t ~from:gp len;
  (* Step 2: descend to the parent segment, growing lengths on the way
     (AddNewSegment).  Every node on the way is owned: its length
     changes, and the parent's children. *)
  let rec descend s =
    t.metrics.nodes_visited <- t.metrics.nodes_visited + 1;
    s.len <- s.len + len;
    match Seg_map.covering_child t.map s gp with
    | -1 -> s
    | i -> descend (own_child t s i)
  in
  let parent = descend (own_root t) in
  (* Step 3: local position (Definition 2), converted to the parent's
     virtual coordinates. *)
  let x_phys = Seg_map.own_offset t.map parent gp in
  (* When [x_phys] sits on a tombstone boundary, every virtual position
     across the gap is physically equivalent; clamp against the left
     sibling's lp so child local positions stay ordered. *)
  let at = Seg_map.child_index t.map parent gp in
  let lp =
    let vlow = virt_of_own_phys_before parent x_phys in
    if at = 0 then vlow else max vlow (Vec.get parent.children (at - 1)).lp
  in
  (* The splice's context chain — fixed for the segment's lifetime: an
     enclosing element's extent covers the whole segment, so removing
     it removes the segment too — is the synopsis path of the innermost
     parent element strictly containing [lp]: the parent's chain, then
     every parent element containing [lp]. *)
  let ctx =
    match container_slot parent lp with
    | None -> parent.ctx
    | Some pid -> Path_synopsis.path t.synopsis pid
  in
  (* Step 4: build and link the node. *)
  let sid = t.next_sid in
  t.next_sid <- t.next_sid + 1;
  (* One synopsis scan counts every element's path and returns its
     slot for the columns. *)
  let pids = Path_synopsis.add_segment t.synopsis ~ctx_tids:ctx ~tids ~starts ~stops in
  let node =
    Er_node.make ~sid ~slot:(Seg_map.alloc t.map gp) ~gen:t.gen ~parent_path:parent.path ~lp ~text
      ~columns:(columns_of ~tids ~starts ~stops ~pids)
  in
  node.ctx <- ctx;
  Vec.insert_at parent.children at node;
  t.live_segments <- t.live_segments + 1;
  t.live_elements <- t.live_elements + Array.length tids;
  (* Edges below the dummy root. *)
  let d = Array.length node.path - 1 in
  if d > t.er_depth then t.er_depth <- d;
  node

(* One tag-list entry per distinct tag of the segment. *)
let iter_tag_entries (node : Er_node.t) f =
  let { Er_node.sid; path; _ } = node in
  Er_node.iter_columns node (fun tid c ->
      f ~tid { Tag_list.sid; path; count = Er_node.cols_length c })

let frozen_guard t who =
  if t.frozen then invalid_arg (who ^ ": frozen snapshot, updates go to the live log")

(* AddNewSegment (Figure 5), for a list of segments applied in order.
   A single insert is the one-edit case: there is no second body.
   [who] names the entry point in refusals. *)
let insert_edits ~who t edits =
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
    (* Parse and label every fragment first, so a malformed one is
       refused before anything is mutated.  A fragment's labels are three
       flat arrays in document order, names, starts and stops, counted
       in a first pass over the tree: its elements then cost three
       words while the batch waits, and its parse tree is garbage as
       soon as it is labelled.  Levels are not kept: an element's
       level is its synopsis slot's depth. *)
    let labelled =
      Array.init b (fun i ->
          let nodes = Lxu_xml.Parser.parse_fragment (snd edits.(i)) in
          let labels f = Lxu_xml.Tree.iter_labels ~attributes:t.index_attributes nodes f in
          let n = ref 0 in
          labels (fun ~name:_ ~start:_ ~stop:_ ~level:_ -> incr n);
          let names = Array.make !n "" and starts = Array.make !n 0 and stops = Array.make !n 0 in
          let k = ref 0 in
          labels (fun ~name ~start ~stop ~level:_ ->
              names.(!k) <- name;
              starts.(!k) <- start;
              stops.(!k) <- stop;
              incr k);
          (names, starts, stops))
    in
    (* Serial ER-tree application (steps 1-4).  Index maintenance
       (steps 5-6) is deferred: instead of one SB-tree descent and one
       tag-list pass per segment, the batch pays one bulk merge into
       each. *)
    let sb_pairs = ref [] in
    let sids = ref [] in
    Array.iteri
      (fun k (gp, text) ->
        let names, starts, stops = labelled.(k) in
        (* Interned in document order, the order tids are assigned. *)
        let tids = Array.map (Tag_registry.intern t.registry) names in
        let node = link_new_segment t ~gp ~text ~tids ~starts ~stops in
        (* Labelled: free them now, not at the end of a long batch. *)
        labelled.(k) <- ([||], [||], [||]);
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
         instead of B.  The merge resolves positions through the SB-tree the
         batch insert has just completed. *)
      Sb_index.insert_sorted_batch t.sb (Array.of_list (List.rev !sb_pairs));
      sort_tag_lists t
    | Lazy_static -> ());
    List.rev !sids

let insert_batch t edits = insert_edits ~who:"Update_log.insert_batch" t edits

let insert t ~gp text =
  match insert_edits ~who:"Update_log.insert" t [ (gp, text) ] with
  | [ sid ] -> sid
  | _ -> assert false

(* --- removal (Figure 7) -------------------------------------------- *)

(* The children of [s] overlapping global range [x, y): the index of
   the first and their extents [(child, gp, gp + len)].  Only the last
   child starting at or before [x] can cover [x], and the others start
   inside the range, so a binary search finds the first and no other
   child is visited. *)
let overlapping t (s : Er_node.t) x y =
  let kids = s.Er_node.children in
  let extent i =
    let k = Vec.get kids i in
    let g = Seg_map.gp t.map k in
    (k, g, g + k.Er_node.len)
  in
  let i = Seg_map.child_index t.map s x in
  let first =
    if i > 0 then
      let _, _, b = extent (i - 1) in
      if b > x then i - 1 else i
    else i
  in
  let rec collect j acc =
    if j = Vec.length kids then List.rev acc
    else
      let ((_, a, _) as e) = extent j in
      if a < y then collect (j + 1) (e :: acc) else List.rev acc
  in
  (first, collect first [])

(* The own text of [s] inside global range [x, y), as one virtual range
   [(vu, vv)] of [s]'s text, or [None] when children cover all of it.
   The own-text gaps of [x, y) form one contiguous virtual range: any
   child strictly between two gaps is fully covered by the removal, so
   it occupies zero virtual width.  Converting the outermost gap ends
   gives the range — per-gap tombstones would wrongly report an element
   spanning a removed child as split.  [over] is the children
   overlapping [x, y) ({!overlapping}). *)
let own_virtual_range t (s : Er_node.t) over x y =
  let first = ref None and last = ref (x, x) and cursor = ref x in
  let gap u v =
    if !first = None then first := Some u;
    last := (u, v)
  in
  List.iter
    (fun (_, a, b) ->
      if a > !cursor then gap !cursor a;
      cursor := max !cursor (min b y))
    over;
  if !cursor < y then gap !cursor y;
  match !first with
  | None -> None
  | Some u0 ->
    let local u = Seg_map.own_offset t.map s u in
    let ulast, vlast = !last in
    Some
      ( Er_node.virt_of_own_phys s (local u0),
        Er_node.virt_of_own_phys s (local ulast + (vlast - ulast)) )

(* Pure pre-check over the segments [remove] will cut: raises if the
   range would split an element, before anything is mutated — a failed
   removal must leave the log untouched. *)
let validate_remove t ~gp ~len =
  let rec walk (s : Er_node.t) x y =
    let _, over = overlapping t s x y in
    (match own_virtual_range t s over x y with
    | None -> ()
    | Some (vu, vv) ->
      (* An element is cut in two when exactly one end falls inside. *)
      Er_node.iter_columns s (fun _ c ->
          for i = 0 to Er_node.cols_length c - 1 do
            let start = c.starts.(i) and stop = c.stops.(i) in
            if (start >= vu && start < vv && stop > vv) || (start < vu && stop > vu && stop <= vv)
            then invalid_arg "Update_log.remove: range splits an element (not a well-formed fragment)"
          done));
    List.iter
      (fun (k, a, b) -> if not (x <= a && b <= y) then walk k (max a x) (min b y))
      over
  in
  walk t.root gp (gp + len)

let remove t ~gp ~len =
  let open Er_node in
  frozen_guard t "Update_log.remove";
  if len <= 0 then invalid_arg "Update_log.remove: non-positive length";
  if gp < 0 || gp + len > t.root.len then invalid_arg "Update_log.remove: range out of bounds";
  validate_remove t ~gp ~len;
  let y_end = gp + len in
  let removed = ref 0 in
  let elements_gone k =
    t.metrics.elements_removed <- t.metrics.elements_removed + k;
    t.live_elements <- t.live_elements - k
  in
  (* Tag-list entries are found by gp (Tag_list.decrement), so every gp
     the walk reads, its own and the tag lists' probes, must be a
     pre-removal one: a deleted segment leaves the tag lists before its
     slot is freed.  A right intersection's [set] reads nothing after
     it: that child is the last one its parent's range overlaps, and so
     is each ancestor at its own level. *)
  let gp_of = sb_gp t in
  (* The subtree's nodes stay as they are: snapshots may share them. *)
  let delete_subtree k =
    Er_node.iter_subtree k (fun n ->
        incr removed;
        Tag_list.remove_segment t.tag_list ~sid:n.sid ~gp:(Seg_map.gp t.map n)
          ~tids:n.columns.tids ~gp_of;
        Path_synopsis.remove_segment t.synopsis n;
        elements_gone (Er_node.element_count n);
        Seg_map.free t.map n.slot;
        match t.mode with
        | Lazy_dynamic -> ignore (Sb_index.remove t.sb n.sid)
        | Lazy_static -> t.sb_dirty <- true)
  in
  (* Removes virtual range [vu, vv) of the owned [s]'s own text:
     tombstone it and drop the elements it covered.  [validate_remove]
     has refused every range that splits an element, so each element is
     either inside the range or untouched by it. *)
  let tombstone_own s vu vv =
    (* The columns are replaced wholesale, not edited in place: copies
       of the node share them.  Each dropped element names its synopsis
       slot, so the decrement walks no path. *)
    let before = s.columns in
    remove_elements s ~vu ~vv (fun ~tid ~pid ->
        Path_synopsis.remove_pid t.synopsis ~tid pid;
        elements_gone 1);
    if s.columns != before then begin
      let gp = Seg_map.gp t.map s in
      Array.iteri
        (fun i tid ->
          let by = cols_length before.per_tag.(i) - cols_length (cols s ~tid) in
          if by > 0 then Tag_list.decrement t.tag_list ~tid ~sid:s.sid ~gp ~gp_of ~by)
        before.tids
    end;
    add_tombstone s vu vv
  in
  (* Recursive removal in pre-removal global coordinates; [x, y) is
     contained in the owned [s]'s span and [s] survives. *)
  let rec remove_range s x y =
    t.metrics.nodes_visited <- t.metrics.nodes_visited + 1;
    s.len <- s.len - (y - x);
    let first, over = overlapping t s x y in
    (match own_virtual_range t s over x y with
    | None -> ()
    | Some (vu, vv) -> tombstone_own s vu vv);
    (* Children cases of §3.3, over the overlapping children only: the
       next one is at index [!i] once the [!gone] contained ones before
       it have left [s.children]. *)
    let i = ref first and gone = ref 0 in
    List.iter
      (fun (k, a, b) ->
        if x <= a && b <= y then begin
          (* Case 2: k is contained in the removed range. *)
          delete_subtree k;
          incr gone
        end
        else begin
          (* Cases 1 and 3: recurse with the clipped range (the
             auxiliary segment of Figure 7). *)
          Vec.remove_range s.children !i !gone;
          gone := 0;
          let sx = max a x and sy = min b y in
          let k = own_child t s !i in
          remove_range k sx sy;
          (* Right intersection: the survivors of k start at the end of
             the removed range (pre-shift coordinates). *)
          if sx = a then Seg_map.set t.map k sy;
          incr i
        end)
      over;
    Vec.remove_range s.children !i !gone
  in
  remove_range (own_root t) gp y_end;
  (* Global shift (RemoveSegment_Start, applied once at the end so the
     recursion works in one coordinate system). *)
  shift t ~from:y_end (-len);
  t.live_segments <- t.live_segments - !removed;
  t.metrics.segments_removed <- t.metrics.segments_removed + !removed

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

let segments_for_tag t ~tag =
  match Tag_registry.find t.registry tag with
  | None -> [||]
  | Some tid -> Tag_list.entries t.tag_list ~tid

(* --- materialization oracle ---------------------------------------- *)

(* The live bytes in document order, kept only inside the global range
   [gp, gp + len): [pos] is the global position of the next live byte,
   and a child subtree outside the range is passed over by its
   length. *)
let materialize_range t ~gp ~len =
  let hi = gp + len in
  let buf = Buffer.create len in
  let pos = ref 0 in
  (* The next [k] live bytes, [text.[s .. s + k)]. *)
  let add text s k =
    let a = max gp !pos and b = min hi (!pos + k) in
    if a < b then Buffer.add_substring buf text (s + a - !pos) (b - a);
    pos := !pos + k
  in
  let rec emit (n : Er_node.t) =
    (* Emits live own text of virtual range [u, v). *)
    let emit_own u v =
      let cursor = ref u in
      Vec.iter
        (fun (a, b) ->
          if b > u && a < v then begin
            if a > !cursor then add n.text !cursor (a - !cursor);
            cursor := max !cursor (min b v)
          end)
        n.tombstones;
      if !cursor < v then add n.text !cursor (v - !cursor)
    in
    let cursor = ref 0 in
    Vec.iter
      (fun (c : Er_node.t) ->
        emit_own !cursor c.lp;
        if !pos < hi && !pos + c.len > gp then emit c else pos := !pos + c.len;
        cursor := c.lp)
      n.children;
    emit_own !cursor n.orig_len
  in
  emit t.root;
  Buffer.contents buf

let materialize t = materialize_range t ~gp:0 ~len:(doc_length t)

let global_elements t ~tag =
  match Tag_registry.find t.registry tag with
  | None -> []
  | Some tid ->
    let depth = Path_synopsis.depth_table t.synopsis in
    let acc = ref [] in
    Er_node.iter_subtree t.root (fun n ->
        let c = Er_node.cols n ~tid in
        for i = 0 to Er_node.cols_length c - 1 do
          let gstart, gstop =
            Er_node.global_extent_span ~gp:(Seg_map.gp t.map n) n ~start:c.starts.(i)
              ~stop:c.stops.(i)
          in
          acc := (gstart, gstop, depth.(c.pids.(i))) :: !acc
        done);
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
  Er_node.check t.root;
  Seg_map.check t.map t.root;
  Er_node.iter_subtree t.root (fun n ->
      if n.Er_node.gen > t.gen then
        failwith (Printf.sprintf "segment %d is of a future generation" n.Er_node.sid));
  (* Tag-list counts agree with the columns, read off both runs of
     each list.  Nothing is merged: an LS pending run stays pending, so
     every main-run sid stays one the SB-tree maps ([sb_gp]).  On the
     way, every column's tag is registered and no live sid has reached
     [next_sid]. *)
  let listed = Hashtbl.create 64 in
  Tag_list.iter_entries t.tag_list (fun ~tid (e : Tag_list.entry) ->
      if Hashtbl.mem listed (tid, e.sid) then
        failwith (Printf.sprintf "tag-list lists (tid %d, sid %d) twice" tid e.sid);
      Hashtbl.replace listed (tid, e.sid) e.count);
  let n_tags = Tag_registry.count t.registry in
  let max_sid = ref 0 in
  Er_node.iter_subtree t.root (fun n ->
      let sid = n.Er_node.sid in
      if sid > !max_sid then max_sid := sid;
      Er_node.iter_columns n (fun tid c ->
          if tid < 0 || tid >= n_tags then
            failwith
              (Printf.sprintf "segment %d: element tag id %d outside the %d-tag registry" sid tid
                 n_tags);
          let held = Er_node.cols_length c in
          match Hashtbl.find_opt listed (tid, sid) with
          | Some c when c = held -> Hashtbl.remove listed (tid, sid)
          | found ->
            failwith
              (Printf.sprintf "segment %d: element columns hold %d of tag %d, the tag list %s" sid
                 held tid
                 (match found with Some c -> string_of_int c | None -> "none"))));
  Hashtbl.iter
    (fun (tid, sid) _ ->
      failwith (Printf.sprintf "tag-list has stale entry (tid %d, sid %d)" tid sid))
    listed;
  (* Every entry is live: the main runs' order, which keyed removal
     searches by, can be read. *)
  let node_by_sid = Hashtbl.create 256 in
  Er_node.iter_subtree t.root (fun n -> Hashtbl.replace node_by_sid n.Er_node.sid n);
  Tag_list.check t.tag_list ~gp_of:(fun sid -> Seg_map.gp t.map (Hashtbl.find node_by_sid sid));
  if t.next_sid <= !max_sid then
    failwith (Printf.sprintf "next sid %d is not above the largest sid %d" t.next_sid !max_sid);
  if t.live_elements <> element_count_walk t then
    failwith
      (Printf.sprintf "element counter says %d, column walk says %d" t.live_elements
         (element_count_walk t));
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
     path synopsis agree with a from-scratch rebuild off the columns'
     tags and extents, and every column entry's slot holds the path the
     rebuild gives its element. *)
  let rebuilt = Path_synopsis.create () in
  iter_contexts t.root (fun n ctx ->
      let sid = n.Er_node.sid in
      if n.Er_node.ctx <> ctx then
        failwith (Printf.sprintf "segment %d: context chain disagrees with a rebuild" sid);
      let tids, starts, stops, pids = flat_elements n in
      let slots = Path_synopsis.add_segment rebuilt ~ctx_tids:ctx ~tids ~starts ~stops in
      Array.iteri
        (fun j pid ->
          if
            pid < 0 || pid >= Path_synopsis.slots t.synopsis
            || Path_synopsis.path t.synopsis pid <> Path_synopsis.path rebuilt slots.(j)
          then
            failwith
              (Printf.sprintf "segment %d: element at %d sits on slot %d, off its rebuilt path" sid
                 starts.(j) pid))
        pids;
      (tids, starts, stops));
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
      map = Seg_map.freeze t.map;
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

let release t = Sb_index.release t.sb

(* --- snapshots ------------------------------------------------------- *)

(* A line-oriented format with length-prefixed raw text blocks.
   Everything needed to reproduce behaviour exactly is stored:
   segments in pre-order with their immutable virtual data (text, lp,
   base level, elements in document order with their levels,
   tombstones) plus current gp/len; levels are written from the slots'
   depths, the base level from the context chain's length; derived
   structures are rebuilt on load.  The payload ends with a trailer
   line [crc <8 hex digits>], the CRC-32 of every byte before it:
   segment texts are stored raw, so without it a flipped byte would
   load as a different document. *)

let snapshot_magic = "LAZYXML-SNAPSHOT-2"

let save t oc =
  let open Er_node in
  let module W = Lxu_storage_core.Snapshot_io in
  let w = W.writer oc in
  let str s =
    W.add_string w s;
    W.add_char w '\n'
  in
  let field n =
    W.add_char w ' ';
    W.add_int w n
  in
  let int_line key n =
    W.add_string w key;
    field n;
    W.add_char w '\n'
  in
  str snapshot_magic;
  str (match t.mode with Lazy_dynamic -> "mode LD" | Lazy_static -> "mode LS");
  str (if t.index_attributes then "attrs true" else "attrs false");
  int_line "next_sid" t.next_sid;
  int_line "tags" (Tag_registry.count t.registry);
  for tid = 0 to Tag_registry.count t.registry - 1 do
    str (Tag_registry.name t.registry tid)
  done;
  let count = ref 0 in
  iter_subtree t.root (fun _ -> incr count);
  int_line "segments" (!count - 1);
  let depth = Path_synopsis.depth_table t.synopsis in
  iter_subtree t.root (fun n ->
      if not (is_root n) then begin
        W.add_string w "seg";
        List.iter field
          [
            n.sid;
            n.path.(Array.length n.path - 2);
            Seg_map.gp t.map n;
            n.len;
            n.lp;
            Array.length n.ctx;
            n.orig_len;
            Vec.length n.tombstones;
            element_count n;
          ];
        W.add_char w '\n';
        str n.text;
        Vec.iter
          (fun (a, b) ->
            W.add_char w 't';
            field a;
            field b;
            W.add_char w '\n')
          n.tombstones;
        iter_elements n (fun ~tid ~start ~stop ~pid ->
            W.add_char w 'e';
            field start;
            field stop;
            field depth.(pid);
            field tid;
            W.add_char w '\n')
      end);
  W.finish w

let full_check = check

let load ?pstore ic =
  let open Er_node in
  let module R = Lxu_storage_core.Snapshot_io in
  (* Every refusal is a [Failure] naming the byte offset of the line
     at fault — callers (Lazy_db.load, Recovery.read_snapshot) prepend
     the file path.  Nothing in here may escape as End_of_file,
     Invalid_argument or Out_of_memory: a truncated or hostile
     snapshot must never look like a crash.  Two passes over the
     (seekable) channel: the first verifies the checksum trailer, the
     second parses through the reader's bounded buffer, bounding every
     count and length by the payload bytes left before it allocates.
     Neither holds the whole file in memory. *)
  let r = R.reader ic in
  let fail fmt = R.fail r fmt in
  let line () = if not (R.next_line r) then fail "snapshot truncated" in
  line ();
  (match R.line r with
  | m when m = snapshot_magic -> ()
  | "LAZYXML-SNAPSHOT-1" ->
    fail "snapshot format 1 (no checksum) is no longer supported; re-save it"
  | _ -> fail "not a lazy-xml snapshot");
  R.verify_trailer r;
  let left () = R.left r in
  (* The next line: [key], then the fields [f] reads, then its end. *)
  let fields key f =
    line ();
    match
      R.keyword r key;
      let v = f () in
      R.eol r;
      v
    with
    | v -> v
    | exception R.Malformed -> fail "bad snapshot line: %s" (R.line r)
  in
  let word_line key = fields key (fun () -> R.word r) in
  let int_line key = fields key (fun () -> R.int r) in
  (* Each counted record takes at least one byte, so a count above the
     bytes left is a lie — refuse it before allocating for it. *)
  let bounded n what =
    if n < 0 then fail "negative %s %d" what n;
    if n > left () then fail "%s %d exceeds the %d bytes left" what n (left ());
    n
  in
  let mode =
    match word_line "mode" with
    | "LD" -> Lazy_dynamic
    | "LS" -> Lazy_static
    | m -> fail "unknown mode %s" m
  in
  let index_attributes =
    match word_line "attrs" with
    | "true" -> true
    | "false" -> false
    | a -> fail "bad attrs flag %s" a
  in
  let next_sid = int_line "next_sid" in
  let t = create ~mode ~index_attributes ?pstore () in
  t.next_sid <- next_sid;
  let tag_count = bounded (int_line "tags") "tag count" in
  for expected = 0 to tag_count - 1 do
    line ();
    let tid = Tag_registry.intern t.registry (R.line r) in
    if tid <> expected then fail "tag table out of order"
  done;
  let seg_count = bounded (int_line "segments") "segment count" in
  let by_sid = Hashtbl.create (seg_count + 1) in
  Hashtbl.add by_sid 0 t.root;
  let elements = Hashtbl.create (seg_count + 1) in
  for _ = 1 to seg_count do
    let sid, parent_sid, gp, len, lp, base_level, orig_len, n_tomb, n_elems =
      fields "seg" (fun () ->
          (* Fields are read left to right. *)
          let sid = R.int r in
          let parent_sid = R.int r in
          let gp = R.int r in
          let len = R.int r in
          let lp = R.int r in
          let base_level = R.int r in
          let orig_len = R.int r in
          let n_tomb = R.int r in
          let n_elems = R.int r in
          (sid, parent_sid, gp, len, lp, base_level, orig_len, n_tomb, n_elems))
    in
    let seg_off = R.line_offset r in
    if Hashtbl.mem by_sid sid then fail "segment sid %d appears twice" sid;
    let text =
      match R.block r (bounded orig_len "segment text length") with
      | text -> text
      | exception R.Malformed -> fail "snapshot truncated"
    in
    if R.byte r <> Char.code '\n' then fail "missing newline after segment text";
    let tombs =
      List.init (bounded n_tomb "tombstone count") (fun _ ->
          fields "t" (fun () ->
              let a = R.int r in
              let b = R.int r in
              (a, b)))
    in
    let n_elems = bounded n_elems "element count" in
    let tids = Array.make n_elems 0 and starts = Array.make n_elems 0 in
    let stops = Array.make n_elems 0 and levels = Array.make n_elems 0 in
    for j = 0 to n_elems - 1 do
      fields "e" (fun () ->
          starts.(j) <- R.int r;
          stops.(j) <- R.int r;
          levels.(j) <- R.int r;
          tids.(j) <- R.int r);
      let tid = tids.(j) in
      if tid < 0 || tid >= tag_count then
        fail "segment %d: element tag id %d outside the %d-tag table" sid tid tag_count;
      if j > 0 && starts.(j) <= starts.(j - 1) then
        fail "segment %d: element starts out of document order" sid
    done;
    let parent =
      match Hashtbl.find_opt by_sid parent_sid with
      | Some p -> p
      | None -> fail "segment %d arrives before its parent %d" sid parent_sid
    in
    (* The columns wait for the slots, which wait for the context
       chain: both are set in the sweep below. *)
    let node =
      Er_node.make ~sid ~slot:(Seg_map.alloc t.map gp) ~gen:t.gen ~parent_path:parent.path ~lp ~text
        ~columns:no_columns
    in
    node.len <- len;
    List.iter (Vec.push node.tombstones) tombs;
    Vec.push parent.children node;
    Hashtbl.add by_sid sid node;
    Hashtbl.add elements sid (seg_off, base_level, tids, starts, stops, levels)
  done;
  if left () <> 0 then
    R.fail_at (R.offset r) "%d unparsed bytes before the checksum trailer" (left ());
  (* Root length is the sum of its children (it has no own text). *)
  t.root.len <- Vec.fold_left (fun acc (c : Er_node.t) -> acc + c.len) 0 t.root.children;
  t.live_segments <- segment_count_walk t;
  (* Rebuild derived structures: context chains and the synopsis, each
     segment's columns from the slots its synopsis scan hands out (the
     sweep places a segment's children with the parsed arrays, checked
     above to be in document order), tag lists from the columns and
     chains, SB-tree from the ER-tree.  A stored base level must be the
     rebuilt chain's length, a stored level its rebuilt slot's depth.
     Hostile elements (overlapping, outside the text) make the slots
     wrong, never raise here: [full_check] refuses them below. *)
  iter_contexts t.root (fun n ctx ->
      let seg_off, base_level, tids, starts, stops, levels = Hashtbl.find elements n.sid in
      let fail fmt = R.fail_at seg_off fmt in
      if base_level <> Array.length ctx then
        fail "segment %d: base level %d under a context chain of %d" n.sid base_level
          (Array.length ctx);
      let pids = Path_synopsis.add_segment t.synopsis ~ctx_tids:ctx ~tids ~starts ~stops in
      let depth = Path_synopsis.depth_table t.synopsis in
      Array.iteri
        (fun j pid ->
          if levels.(j) <> depth.(pid) then
            fail "segment %d: element at %d stored at level %d, its path has depth %d" n.sid
              starts.(j) levels.(j) depth.(pid))
        pids;
      n.ctx <- ctx;
      n.columns <- columns_of ~tids ~starts ~stops ~pids;
      (tids, starts, stops));
  t.live_elements <- element_count_walk t;
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
          gp = Seg_map.gp t.map c;
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
