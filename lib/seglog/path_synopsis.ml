(* Counts live in a flat array indexed by an append-only path -> slot
   table, not in per-path ref cells, and [clone] is copy-on-write:
   MVCC publishes a frozen clone after every committing write, so the
   clone itself is O(1).  The frozen side shares [index], [paths],
   [depth], [counts] and [tag_counts] outright (it never mutates); the
   live side copies a shared structure right before its first mutation
   after a freeze — one flat [Array.copy] per write for the counts,
   and a bucket-level [Hashtbl.copy] of the index (with the two slot
   arrays) only when a {e new} distinct path appears, which
   steady-state traffic almost never does.  Slots are never reused:
   one whose count returns to zero keeps its path, because elements
   carry their slot in their segment's columns and a frozen reader may
   still hold columns naming it. *)
type t = {
  mutable index : (int array, int) Hashtbl.t;
      (* root-to-element tag-id path -> slot.  Key arrays are
         write-once and shared with clones and with [paths]. *)
  mutable paths : int array array;  (* slot -> path *)
  mutable depth : int array;  (* slot -> level: path length - 1 *)
  mutable parent : int array;  (* slot -> its path's parent prefix's slot, -1 at the root *)
  mutable index_shared : bool;  (* covers [index], [paths], [depth] and [parent] *)
  mutable counts : int array;  (* slot -> live element count *)
  mutable tag_counts : int array;  (* tag id -> live element count *)
  mutable counts_shared : bool;  (* covers [counts] and [tag_counts] *)
  mutable n_slots : int;
  mutable live_paths : int;  (* slots with a non-zero count *)
  mutable elems : int;
}

let create () =
  {
    index = Hashtbl.create 256;
    paths = Array.make 256 [||];
    depth = Array.make 256 0;
    parent = Array.make 256 (-1);
    index_shared = false;
    counts = Array.make 256 0;
    tag_counts = Array.make 64 0;
    counts_shared = false;
    n_slots = 0;
    live_paths = 0;
    elems = 0;
  }

let clone t =
  t.index_shared <- true;
  t.counts_shared <- true;
  { t with index_shared = true; counts_shared = true }

(* Before the live side touches a count cell: take ownership of the
   flat arrays if a frozen clone still shares them. *)
let own_counts t =
  if t.counts_shared then begin
    t.counts <- Array.copy t.counts;
    t.tag_counts <- Array.copy t.tag_counts;
    t.counts_shared <- false
  end

(* Before the live side registers a new path: likewise for the index
   and the slot tables. *)
let own_index t =
  if t.index_shared then begin
    t.index <- Hashtbl.copy t.index;
    t.paths <- Array.copy t.paths;
    t.depth <- Array.copy t.depth;
    t.parent <- Array.copy t.parent;
    t.index_shared <- false
  end

let elements t = t.elems
let distinct_paths t = t.live_paths
let slots t = t.n_slots
let depth_table t = t.depth
let parent_table t = t.parent
let path t s = t.paths.(s)
let count t s = t.counts.(s)

let tag_total t ~tid =
  if tid >= 0 && tid < Array.length t.tag_counts then t.tag_counts.(tid) else 0

let bump_total t tid d =
  if tid >= Array.length t.tag_counts then begin
    let na = Array.make (max (tid + 1) (2 * Array.length t.tag_counts)) 0 in
    Array.blit t.tag_counts 0 na 0 (Array.length t.tag_counts);
    t.tag_counts <- na
  end;
  t.tag_counts.(tid) <- t.tag_counts.(tid) + d

let grow a fill =
  let na = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 na 0 (Array.length a);
  na

(* A new path's parent prefix gets its slot first (an ancestor's path
   is normally registered already), so a parent's slot is always below
   its children's. *)
let rec slot_for t key =
  match Hashtbl.find_opt t.index key with
  | Some s -> s
  | None ->
    let len = Array.length key in
    let parent = if len <= 1 then -1 else slot_for t (Array.sub key 0 (len - 1)) in
    own_index t;
    let s = t.n_slots in
    if s >= Array.length t.counts then begin
      (* A fresh array is owned whatever [counts_shared] says, but
         [tag_counts] may still be shared: [own_counts] ran first. *)
      t.counts <- grow t.counts 0;
      t.paths <- grow t.paths [||];
      t.depth <- grow t.depth 0;
      t.parent <- grow t.parent (-1)
    end;
    t.n_slots <- s + 1;
    t.paths.(s) <- key;
    t.depth.(s) <- len - 1;
    t.parent.(s) <- parent;
    Hashtbl.add t.index key s;
    s

(* Walks a segment's elements, given in document order as parallel
   arrays (properly nested), with an ancestor stack and hands [f] each
   element's index and full root-to-element path in a scratch buffer:
   [ctx_tids], then the tags of the enclosing fragment elements, then
   the element's own tag.  The buffer is only valid for the duration
   of the call. *)
let iter_element_paths ~ctx_tids ~tids ~starts ~stops f =
  let nctx = Array.length ctx_tids in
  let buf = ref (Array.make (nctx + 16) 0) in
  Array.blit ctx_tids 0 !buf 0 nctx;
  let open_stops = ref (Array.make 16 0) in
  let depth = ref 0 in
  Array.iteri
    (fun i tid ->
      while !depth > 0 && !open_stops.(!depth - 1) <= starts.(i) do
        decr depth
      done;
      let len = nctx + !depth + 1 in
      if len > Array.length !buf then begin
        let nb = Array.make (2 * len) 0 in
        Array.blit !buf 0 nb 0 (Array.length !buf);
        buf := nb
      end;
      !buf.(len - 1) <- tid;
      f i !buf len;
      (* Push after the call: the slot written above doubles as the
         stack entry for elements nested inside element [i]. *)
      if !depth = Array.length !open_stops then begin
        let ns = Array.make (2 * !depth) 0 in
        Array.blit !open_stops 0 ns 0 !depth;
        open_stops := ns
      end;
      !open_stops.(!depth) <- stops.(i);
      incr depth)
    tids

let prefix_equal (key : int array) (buf : int array) len =
  Array.length key = len
  &&
  let rec eq i = i >= len || (key.(i) = buf.(i) && eq (i + 1)) in
  eq 0

let add_segment t ~ctx_tids ~tids ~starts ~stops =
  own_counts t;
  let pids = Array.make (Array.length tids) 0 in
  (* Sibling runs repeat the same path back to back, so memoize the
     last slot and skip the hash round-trip for repeats. *)
  let last_key = ref [||] in
  let last_slot = ref (-1) in
  iter_element_paths ~ctx_tids ~tids ~starts ~stops (fun i buf len ->
      bump_total t tids.(i) 1;
      t.elems <- t.elems + 1;
      let s =
        if prefix_equal !last_key buf len then !last_slot
        else begin
          let key = Array.sub buf 0 len in
          let s = slot_for t key in
          last_key := t.paths.(s);
          last_slot := s;
          s
        end
      in
      if t.counts.(s) = 0 then t.live_paths <- t.live_paths + 1;
      t.counts.(s) <- t.counts.(s) + 1;
      pids.(i) <- s);
  pids

let remove_pid t ~tid pid =
  own_counts t;
  bump_total t tid (-1);
  t.elems <- t.elems - 1;
  let c = t.counts.(pid) - 1 in
  t.counts.(pid) <- c;
  if c = 0 then t.live_paths <- t.live_paths - 1

let remove_segment t (n : Er_node.t) =
  own_counts t;
  Er_node.iter_columns n (fun tid c ->
      let k = Er_node.cols_length c in
      bump_total t tid (-k);
      t.elems <- t.elems - k;
      Array.iter
        (fun pid ->
          let c = t.counts.(pid) - 1 in
          t.counts.(pid) <- c;
          if c = 0 then t.live_paths <- t.live_paths - 1)
        c.Er_node.pids)

let iter t f =
  for s = 0 to t.n_slots - 1 do
    let c = t.counts.(s) in
    if c > 0 then f t.paths.(s) c
  done

let to_sorted_list t =
  let acc = ref [] in
  iter t (fun k c -> acc := (Array.to_list k, c) :: !acc);
  List.sort compare !acc

let equal a b =
  a.elems = b.elems
  && a.live_paths = b.live_paths
  &&
  let ok = ref true in
  iter a (fun k c ->
      match Hashtbl.find_opt b.index k with
      | Some s' when b.counts.(s') = c -> ()
      | _ -> ok := false);
  !ok

let size_bytes t =
  let paths = ref 0 in
  for s = 0 to t.n_slots - 1 do
    paths := !paths + (8 * (Array.length t.paths.(s) + 3))
  done;
  !paths
  + (8 * (Array.length t.counts + Array.length t.tag_counts + Array.length t.depth
          + Array.length t.parent))
