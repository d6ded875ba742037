(* Page-backed B+-tree over a copy-on-write {!Page_store}.

   Keys are fixed [kw]-word int tuples (lexicographic order), values
   fixed [vw]-word tuples, both stored inline as int64 LE words, so a
   node is pure int words and a page read decodes nothing.

   Node payload layout (words):
     w0            tag: 0 = leaf, 1 = branch
     w1            count (entries for a leaf, children for a branch)
     leaf:    w2.. count × (kw+vw) words, key then value, sorted
     branch:  w2.. count child pids, then (count-1) separators × kw

   Separator s_i is the smallest key of child i+1's subtree: a lookup
   for k descends into child (number of separators ≤ k).

   There is deliberately no leaf chain: under copy-on-write a page
   relocates whenever touched, which would invalidate the left
   neighbour's next pointer.  Range scans instead walk an explicit
   (pid, child-index) stack, re-pinning interior pages as they pop —
   cheap, because interior pages are hot in the buffer pool.

   Deletion is lazy, as the seglog's update discipline favours:
   no rebalancing or merging, only empty nodes are removed (and the
   root collapses through single-child branches).  Bulk operations
   rebuild perfectly packed trees, which re-tightens occupancy the
   same way segment packing re-tightens the skeleton.

   Mutation follows rewrite-not-overwrite: a changed node lands on a
   fresh pid via {!Page_store.write_fresh} (or in place when the pid
   is already fresh this epoch), and the old pid is freed — the
   page-level COW protocol does the rest. *)

module Page_store = Lxu_storage_core.Page_store

type t = {
  ps : Page_store.t;
  slot : string;
  kw : int;
  vw : int;
  stride : int;  (* kw + vw *)
  leaf_cap : int;
  branch_cap : int;
  mutable root : int;  (* pid, -1 when empty *)
  mutable size : int;
}

let get_w b i = Int64.to_int (Bytes.get_int64_le b (i * 8))
let set_w b i v = Bytes.set_int64_le b (i * 8) (Int64.of_int v)

let leaf_tag = 0
let branch_tag = 1

let publish t = Page_store.set_root t.ps t.slot ~pid:t.root ~size:t.size

let mk ps ~slot ~kw ~vw ~root ~size =
  if kw < 1 then invalid_arg "Paged_bptree: kw must be >= 1";
  if vw < 0 then invalid_arg "Paged_bptree: vw must be >= 0";
  let ints = Page_store.payload_bytes ps / 8 in
  let leaf_cap = (ints - 2) / (kw + vw) in
  let branch_cap = (ints - 2 + kw) / (1 + kw) in
  if leaf_cap < 2 || branch_cap < 3 then
    invalid_arg
      (Printf.sprintf "Paged_bptree: page too small for kw=%d vw=%d (leaf %d, branch %d)"
         kw vw leaf_cap branch_cap);
  { ps; slot; kw; vw; stride = kw + vw; leaf_cap; branch_cap; root; size }

let create ps ~slot ~kw ~vw =
  let t = mk ps ~slot ~kw ~vw ~root:(-1) ~size:0 in
  publish t;
  t

let attach ps ~slot ~kw ~vw =
  match Page_store.root ps slot with
  | Some (pid, size) when pid >= 0 -> mk ps ~slot ~kw ~vw ~root:pid ~size
  | _ -> create ps ~slot ~kw ~vw

let length t = t.size
let store t = t.ps

(* compare the kw-word key at word offset [off] of [b] with [k] *)
let cmp_key_at t b off (k : int array) =
  let rec go i =
    if i = t.kw then 0
    else
      let v = get_w b (off + i) in
      if v < k.(i) then -1 else if v > k.(i) then 1 else go (i + 1)
  in
  go 0

(* first entry index whose key is >= k, in [0, count] *)
let leaf_lower_bound t b count k =
  let lo = ref 0 and hi = ref count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_key_at t b (2 + (mid * t.stride)) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* number of separators <= k, in [0, count-1]: the child to descend into *)
let child_index t b count k =
  let lo = ref 0 and hi = ref (count - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_key_at t b (2 + count + (mid * t.kw)) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- node materialization (mutating paths only) --- *)

let read_words b off dst n = for i = 0 to n - 1 do dst.(i) <- get_w b (off + i) done
let write_words b off src n = for i = 0 to n - 1 do set_w b (off + i) src.(i) done

let write_leaf t b ~count ents =
  set_w b 0 leaf_tag;
  set_w b 1 count;
  write_words b 2 ents (count * t.stride)

let write_branch t b ~count children seps =
  set_w b 0 branch_tag;
  set_w b 1 count;
  for i = 0 to count - 1 do
    set_w b (2 + i) children.(i)
  done;
  write_words b (2 + count) seps ((count - 1) * t.kw)

(* Replace node [pid] with new content: in place when fresh this
   epoch, else on a fresh pid (old freed).  Returns the pid the
   content lives on. *)
let rewrite t pid writer =
  if Page_store.is_fresh t.ps pid then begin
    Page_store.with_page_mut t.ps pid writer;
    pid
  end
  else begin
    let np = Page_store.alloc t.ps in
    Page_store.write_fresh t.ps np writer;
    Page_store.free t.ps pid;
    np
  end

let write_new t writer =
  let np = Page_store.alloc t.ps in
  Page_store.write_fresh t.ps np writer;
  np

(* --- find --- *)

let rec find_from t pid key ~value =
  Page_store.with_page t.ps pid (fun b ->
      let count = get_w b 1 in
      if get_w b 0 = leaf_tag then begin
        let pos = leaf_lower_bound t b count key in
        if pos < count && cmp_key_at t b (2 + (pos * t.stride)) key = 0 then begin
          (* [mem] probes with an empty buffer: existence only. *)
          if Array.length value >= t.vw then
            read_words b (2 + (pos * t.stride) + t.kw) value t.vw;
          true
        end
        else false
      end
      else
        let ci = child_index t b count key in
        let child = get_w b (2 + ci) in
        find_from t child key ~value)

let no_value : int array = [||]

let find t key ~value = if t.root < 0 then false else find_from t t.root key ~value
let mem t key = if t.root < 0 then false else find_from t t.root key ~value:no_value

(* --- insert --- *)

type split = { sep : int array; s_right : int }

(* (pid', key-was-new, split?) *)
let rec ins t pid key value =
  let tag, count =
    Page_store.with_page t.ps pid (fun b -> (get_w b 0, get_w b 1))
  in
  if tag = leaf_tag then begin
    let ents = Array.make ((count + 1) * t.stride) 0 in
    let pos =
      Page_store.with_page t.ps pid (fun b ->
          read_words b 2 ents (count * t.stride);
          leaf_lower_bound t b count key)
    in
    let off = pos * t.stride in
    if pos < count && (let rec eq i = i = t.kw || (ents.(off + i) = key.(i) && eq (i + 1)) in eq 0)
    then
      if t.vw = 0 then (pid, false, None)
      else begin
        Array.blit value 0 ents (off + t.kw) t.vw;
        (rewrite t pid (fun b -> write_leaf t b ~count ents), false, None)
      end
    else begin
      (* shift tail right one stride, splice the new entry in *)
      Array.blit ents off ents (off + t.stride) ((count - pos) * t.stride);
      Array.blit key 0 ents off t.kw;
      Array.blit value 0 ents (off + t.kw) t.vw;
      let total = count + 1 in
      if total <= t.leaf_cap then
        (rewrite t pid (fun b -> write_leaf t b ~count:total ents), true, None)
      else begin
        let left_n = (total + 1) / 2 in
        let right_n = total - left_n in
        let right_ents = Array.sub ents (left_n * t.stride) (right_n * t.stride) in
        let sep = Array.sub right_ents 0 t.kw in
        let pid_l = rewrite t pid (fun b -> write_leaf t b ~count:left_n ents) in
        let pid_r = write_new t (fun b -> write_leaf t b ~count:right_n right_ents) in
        (pid_l, true, Some { sep; s_right = pid_r })
      end
    end
  end
  else begin
    let children = Array.make (count + 1) 0 in
    let seps = Array.make (count * t.kw) 0 in
    let ci =
      Page_store.with_page t.ps pid (fun b ->
          for i = 0 to count - 1 do
            children.(i) <- get_w b (2 + i)
          done;
          read_words b (2 + count) seps ((count - 1) * t.kw);
          child_index t b count key)
    in
    let cp, added, sp = ins t children.(ci) key value in
    match sp with
    | None ->
      if cp = children.(ci) then (pid, added, None)
      else begin
        children.(ci) <- cp;
        (rewrite t pid (fun b -> write_branch t b ~count children seps), added, None)
      end
    | Some { sep; s_right } ->
      children.(ci) <- cp;
      (* splice sep at index ci, right child at ci+1 *)
      Array.blit children (ci + 1) children (ci + 2) (count - ci - 1);
      children.(ci + 1) <- s_right;
      Array.blit seps (ci * t.kw) seps ((ci + 1) * t.kw) ((count - 1 - ci) * t.kw);
      Array.blit sep 0 seps (ci * t.kw) t.kw;
      let total = count + 1 in
      if total <= t.branch_cap then
        (rewrite t pid (fun b -> write_branch t b ~count:total children seps), added, None)
      else begin
        let left_n = (total + 1) / 2 in
        let right_n = total - left_n in
        let promoted = Array.sub seps ((left_n - 1) * t.kw) t.kw in
        let right_children = Array.sub children left_n right_n in
        let right_seps = Array.sub seps (left_n * t.kw) ((right_n - 1) * t.kw) in
        let pid_l = rewrite t pid (fun b -> write_branch t b ~count:left_n children seps) in
        let pid_r = write_new t (fun b -> write_branch t b ~count:right_n right_children right_seps) in
        (pid_l, added, Some { sep = promoted; s_right = pid_r })
      end
  end

let insert t key value =
  if Array.length key <> t.kw || Array.length value <> t.vw then
    invalid_arg "Paged_bptree.insert: key/value width mismatch";
  (if t.root < 0 then begin
     let ents = Array.make t.stride 0 in
     Array.blit key 0 ents 0 t.kw;
     Array.blit value 0 ents t.kw t.vw;
     t.root <- write_new t (fun b -> write_leaf t b ~count:1 ents);
     t.size <- 1
   end
   else
     let r, added, sp = ins t t.root key value in
     let r =
       match sp with
       | None -> r
       | Some { sep; s_right } ->
         write_new t (fun b -> write_branch t b ~count:2 [| r; s_right |] sep)
     in
     t.root <- r;
     if added then t.size <- t.size + 1);
  publish t

(* --- remove (lazy: no rebalancing, empty nodes unlink) --- *)

(* (surviving pid option, key-was-present) *)
let rec del t pid key =
  let tag, count =
    Page_store.with_page t.ps pid (fun b -> (get_w b 0, get_w b 1))
  in
  if tag = leaf_tag then begin
    let ents = Array.make (count * t.stride) 0 in
    let pos =
      Page_store.with_page t.ps pid (fun b ->
          read_words b 2 ents (count * t.stride);
          leaf_lower_bound t b count key)
    in
    let off = pos * t.stride in
    if pos >= count || not (let rec eq i = i = t.kw || (ents.(off + i) = key.(i) && eq (i + 1)) in eq 0)
    then (Some pid, false)
    else if count = 1 then begin
      Page_store.free t.ps pid;
      (None, true)
    end
    else begin
      Array.blit ents (off + t.stride) ents off ((count - 1 - pos) * t.stride);
      (Some (rewrite t pid (fun b -> write_leaf t b ~count:(count - 1) ents)), true)
    end
  end
  else begin
    let children = Array.make count 0 in
    let seps = Array.make ((count - 1) * t.kw) 0 in
    let ci =
      Page_store.with_page t.ps pid (fun b ->
          for i = 0 to count - 1 do
            children.(i) <- get_w b (2 + i)
          done;
          read_words b (2 + count) seps ((count - 1) * t.kw);
          child_index t b count key)
    in
    match del t children.(ci) key with
    | Some cp, removed ->
      if cp = children.(ci) then (Some pid, removed)
      else begin
        children.(ci) <- cp;
        (Some (rewrite t pid (fun b -> write_branch t b ~count children seps)), removed)
      end
    | None, removed ->
      if count = 1 then begin
        Page_store.free t.ps pid;
        (None, removed)
      end
      else begin
        (* drop child ci and the separator adjoining it *)
        let nc = Array.make (count - 1) 0 in
        Array.blit children 0 nc 0 ci;
        Array.blit children (ci + 1) nc ci (count - 1 - ci);
        let si = if ci = 0 then 0 else ci - 1 in
        let ns = Array.make ((count - 2) * t.kw) 0 in
        Array.blit seps 0 ns 0 (si * t.kw);
        Array.blit seps ((si + 1) * t.kw) ns (si * t.kw) ((count - 2 - si) * t.kw);
        (Some (rewrite t pid (fun b -> write_branch t b ~count:(count - 1) nc ns)), removed)
      end
  end

let rec collapse_root t =
  if t.root >= 0 then begin
    let info =
      Page_store.with_page t.ps t.root (fun b ->
          if get_w b 0 = branch_tag && get_w b 1 = 1 then Some (get_w b 2) else None)
    in
    match info with
    | Some only_child ->
      Page_store.free t.ps t.root;
      t.root <- only_child;
      collapse_root t
    | None -> ()
  end

let remove t key =
  if Array.length key <> t.kw then invalid_arg "Paged_bptree.remove: key width mismatch";
  if t.root < 0 then false
  else begin
    let r, removed = del t t.root key in
    t.root <- (match r with None -> -1 | Some p -> p);
    collapse_root t;
    if removed then t.size <- t.size - 1;
    publish t;
    removed
  end

(* --- iteration: explicit stack, no leaf chain --- *)

exception Stop

let iter_gen t lo f =
  if t.root >= 0 then begin
    let kbuf = Array.make t.kw 0 in
    let vbuf = Array.make t.vw 0 in
    (* stack of (branch pid, next child index to visit) *)
    let stack = ref [] in
    let emit_leaf b count start =
      for i = start to count - 1 do
        let off = 2 + (i * t.stride) in
        read_words b off kbuf t.kw;
        read_words b (off + t.kw) vbuf t.vw;
        if not (f kbuf vbuf) then raise Stop
      done
    in
    (* [bounded] is true only on the initial descent toward [lo] *)
    let rec descend pid ~bounded =
      Page_store.with_page t.ps pid (fun b ->
          let count = get_w b 1 in
          if get_w b 0 = leaf_tag then
            let start =
              match lo with
              | Some k when bounded -> leaf_lower_bound t b count k
              | _ -> 0
            in
            emit_leaf b count start
          else begin
            let ci =
              match lo with Some k when bounded -> child_index t b count k | _ -> 0
            in
            stack := (pid, ci + 1) :: !stack;
            descend (get_w b (2 + ci)) ~bounded
          end)
    in
    let rec drain () =
      match !stack with
      | [] -> ()
      | (pid, ci) :: rest ->
        stack := rest;
        let next =
          Page_store.with_page t.ps pid (fun b ->
              let count = get_w b 1 in
              if ci < count then Some (get_w b (2 + ci)) else None)
        in
        (match next with
        | Some child ->
          stack := (pid, ci + 1) :: !stack;
          descend child ~bounded:false
        | None -> ());
        drain ()
    in
    try
      descend t.root ~bounded:(lo <> None);
      drain ()
    with Stop -> ()
  end

let iter t f = iter_gen t None f
let iter_from t lo f = iter_gen t (Some lo) f

(* --- bulk build: streaming bottom-up packer ---

   Leaves fill completely; each flushed node pushes (first key, pid)
   into its parent level's pending slots, cascading when a level
   fills.  Memory is O(height × branch_cap × kw) — beyond-RAM safe. *)

type level = { l_keys : int array; l_pids : int array; mutable l_n : int }

type builder = {
  b_t : t;
  b_leaf : int array;
  mutable b_leaf_n : int;
  mutable b_levels : level list;  (* level 0 = parents of leaves; grows *)
  mutable b_total : int;
  b_prev : int array;  (* last key pushed, for the sortedness check *)
}

let builder t =
  { b_t = t; b_leaf = Array.make (t.leaf_cap * t.stride) 0; b_leaf_n = 0; b_levels = [];
    b_total = 0; b_prev = Array.make t.kw 0 }

let rec level_nth b i =
  let rec nth levels i =
    match levels with
    | l :: rest -> if i = 0 then Some l else nth rest (i - 1)
    | [] -> None
  in
  match nth b.b_levels i with
  | Some l -> l
  | None ->
    let t = b.b_t in
    let l =
      { l_keys = Array.make (t.branch_cap * t.kw) 0; l_pids = Array.make t.branch_cap 0;
        l_n = 0 }
    in
    b.b_levels <- b.b_levels @ [ l ];
    level_nth b i

let rec push_child b lvl key koff pid =
  let t = b.b_t in
  let l = level_nth b lvl in
  Array.blit key koff l.l_keys (l.l_n * t.kw) t.kw;
  l.l_pids.(l.l_n) <- pid;
  l.l_n <- l.l_n + 1;
  if l.l_n = t.branch_cap then flush_branch b lvl

and flush_branch b lvl =
  let t = b.b_t in
  let l = level_nth b lvl in
  let n = l.l_n in
  if n > 0 then begin
    let children = Array.sub l.l_pids 0 n in
    let seps = Array.sub l.l_keys t.kw ((n - 1) * t.kw) in
    let pid = write_new t (fun bts -> write_branch t bts ~count:n children seps) in
    l.l_n <- 0;
    push_child b (lvl + 1) l.l_keys 0 pid
  end

let flush_leaf b =
  let t = b.b_t in
  if b.b_leaf_n > 0 then begin
    let n = b.b_leaf_n in
    let pid = write_new t (fun bts -> write_leaf t bts ~count:n b.b_leaf) in
    b.b_leaf_n <- 0;
    push_child b 0 b.b_leaf 0 pid
  end

let push_entry b key value =
  let t = b.b_t in
  (if b.b_total > 0 then begin
     let rec cmp i = if i = t.kw then 0
       else if b.b_prev.(i) < key.(i) then -1
       else if b.b_prev.(i) > key.(i) then 1
       else cmp (i + 1)
     in
     if cmp 0 >= 0 then invalid_arg "Paged_bptree: bulk keys must be strictly increasing"
   end);
  Array.blit key 0 b.b_prev 0 t.kw;
  let off = b.b_leaf_n * t.stride in
  Array.blit key 0 b.b_leaf off t.kw;
  Array.blit value 0 b.b_leaf (off + t.kw) t.vw;
  b.b_leaf_n <- b.b_leaf_n + 1;
  b.b_total <- b.b_total + 1;
  if b.b_leaf_n = t.leaf_cap then flush_leaf b

let finish b =
  flush_leaf b;
  if b.b_total = 0 then -1
  else begin
    (* cascade partial levels upward; the topmost single pending child
       is the root *)
    let root = ref (-1) in
    let rec go lvl =
      let l = level_nth b lvl in
      let is_top =
        (* no pending children above this level *)
        let rec above levels i =
          match levels with
          | [] -> true
          | x :: rest -> if i <= 0 then (x.l_n = 0 && above rest 0) else above rest (i - 1)
        in
        above b.b_levels (lvl + 1)
      in
      if l.l_n = 1 && is_top then root := l.l_pids.(0)
      else begin
        flush_branch b lvl;
        go (lvl + 1)
      end
    in
    go 0;
    !root
  end

(* free every page of the subtree rooted at [pid] *)
let rec free_subtree t pid =
  let children =
    Page_store.with_page t.ps pid (fun b ->
        if get_w b 0 = branch_tag then begin
          let count = get_w b 1 in
          Array.init count (fun i -> get_w b (2 + i))
        end
        else [||])
  in
  Array.iter (fun c -> free_subtree t c) children;
  Page_store.free t.ps pid

let clear t =
  if t.root >= 0 then free_subtree t t.root;
  t.root <- -1;
  t.size <- 0;
  publish t

let load_sorted t ~n ~get =
  let old_root = t.root in
  let b = builder t in
  let kbuf = Array.make t.kw 0 and vbuf = Array.make t.vw 0 in
  for i = 0 to n - 1 do
    get i kbuf vbuf;
    push_entry b kbuf vbuf
  done;
  let new_root = finish b in
  if old_root >= 0 then free_subtree t old_root;
  t.root <- new_root;
  t.size <- n;
  publish t

let insert_sorted_batch t ~n ~get =
  if n > 0 then begin
    if t.root < 0 then load_sorted t ~n ~get
    else if n * 4 < t.size then begin
      let kbuf = Array.make t.kw 0 and vbuf = Array.make t.vw 0 in
      for i = 0 to n - 1 do
        get i kbuf vbuf;
        insert t kbuf vbuf
      done
    end
    else begin
      (* merge-rebuild: stream old ∪ batch (batch wins ties) into a
         packed tree, then free the old one *)
      let old_root = t.root in
      let b = builder t in
      let bk = Array.make t.kw 0 and bv = Array.make t.vw 0 in
      let bi = ref 0 in
      let have_batch = ref false in
      let fetch () =
        if !bi < n then begin
          get !bi bk bv;
          incr bi;
          have_batch := true
        end
        else have_batch := false
      in
      fetch ();
      let cmp_batch k =
        let rec go i =
          if i = t.kw then 0
          else if bk.(i) < k.(i) then -1
          else if bk.(i) > k.(i) then 1
          else go (i + 1)
        in
        go 0
      in
      iter_gen t None (fun k v ->
          let rec drain () =
            if !have_batch then begin
              let c = cmp_batch k in
              if c < 0 then begin
                push_entry b bk bv;
                fetch ();
                drain ()
              end
              else if c = 0 then begin
                (* batch replaces the old entry *)
                push_entry b bk bv;
                fetch ();
                false
              end
              else true
            end
            else true
          in
          if drain () then push_entry b k v;
          true);
      while !have_batch do
        push_entry b bk bv;
        fetch ()
      done;
      let new_root = finish b in
      let new_size = b.b_total in
      free_subtree t old_root;
      t.root <- new_root;
      t.size <- new_size;
      publish t
    end
  end

(* --- diagnostics --- *)

let height t =
  if t.root < 0 then 0
  else begin
    let rec go pid acc =
      Page_store.with_page t.ps pid (fun b ->
          if get_w b 0 = leaf_tag then acc else go (get_w b 2) (acc + 1))
    in
    go t.root 1
  end

let node_counts t =
  if t.root < 0 then (0, 0)
  else begin
    let leaves = ref 0 and branches = ref 0 in
    let rec go pid =
      let children =
        Page_store.with_page t.ps pid (fun b ->
            if get_w b 0 = leaf_tag then begin
              incr leaves;
              [||]
            end
            else begin
              incr branches;
              Array.init (get_w b 1) (fun i -> get_w b (2 + i))
            end)
      in
      Array.iter go children
    in
    go t.root;
    (!leaves, !branches)
  end

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if t.root < 0 then begin
    if t.size <> 0 then fail "Paged_bptree: empty tree with size %d" t.size
  end
  else begin
    let entries = ref 0 in
    let leaf_depth = ref (-1) in
    (* keys in a subtree must lie in [lo, hi) (None = unbounded) *)
    let cmp_arr a b_ =
      let rec go i =
        if i = t.kw then 0
        else if a.(i) < b_.(i) then -1
        else if a.(i) > b_.(i) then 1
        else go (i + 1)
      in
      go 0
    in
    let in_window k lo hi =
      (match lo with None -> true | Some l -> cmp_arr k l >= 0)
      && match hi with None -> true | Some h -> cmp_arr k h < 0
    in
    let rec go pid depth lo hi =
      Page_store.with_page t.ps pid (fun b ->
          let tag = get_w b 0 and count = get_w b 1 in
          if count < 1 then fail "Paged_bptree: empty node pid %d" pid;
          if tag = leaf_tag then begin
            if count > t.leaf_cap then fail "Paged_bptree: overfull leaf pid %d" pid;
            if !leaf_depth = -1 then leaf_depth := depth
            else if !leaf_depth <> depth then
              fail "Paged_bptree: leaf depth %d <> %d" depth !leaf_depth;
            entries := !entries + count;
            let prev = ref None in
            for i = 0 to count - 1 do
              let k = Array.init t.kw (fun j -> get_w b (2 + (i * t.stride) + j)) in
              if not (in_window k lo hi) then fail "Paged_bptree: leaf key out of window pid %d" pid;
              (match !prev with
              | Some p when cmp_arr p k >= 0 -> fail "Paged_bptree: unsorted leaf pid %d" pid
              | _ -> ());
              prev := Some k
            done
          end
          else begin
            if count > t.branch_cap then fail "Paged_bptree: overfull branch pid %d" pid;
            let seps =
              Array.init (count - 1) (fun i ->
                  Array.init t.kw (fun j -> get_w b (2 + count + (i * t.kw) + j)))
            in
            Array.iteri
              (fun i s ->
                if not (in_window s lo hi) then fail "Paged_bptree: separator out of window pid %d" pid;
                if i > 0 && cmp_arr seps.(i - 1) s >= 0 then
                  fail "Paged_bptree: unsorted separators pid %d" pid)
              seps;
            for i = 0 to count - 1 do
              let clo = if i = 0 then lo else Some seps.(i - 1) in
              let chi = if i = count - 1 then hi else Some seps.(i) in
              go (get_w b (2 + i)) (depth + 1) clo chi
            done
          end)
    in
    go t.root 0 None None;
    if !entries <> t.size then fail "Paged_bptree: size %d but %d entries" t.size !entries
  end
