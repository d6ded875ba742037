open Lxu_util

type entry = { sid : int; path : int array; mutable count : int }

exception Dirty_tag_list of int

(* One per-tag list with its own dirty bit: an LS-mode append soils
   only the tag it touches, so the pre-query sort processes exactly the
   updated tags instead of every list in the table.

   Each slot keeps two runs.  [entries] is the {e main run}, sorted by
   the segments' current global positions.  The run-merge invariant
   that keeps it sorted without re-sorting: every gp shift an update
   applies is monotone (all positions >= the edit point move by the
   same delta), so the relative order of existing entries never
   changes.  [pending] accumulates entries appended since the last
   sort, in arrival order; [sort_all] sorts only the pending run and
   merges the two, O(n + p·log p) instead of a full O((n+p)·log(n+p))
   re-sort.  Clean slots have an empty pending run. *)
type slot = {
  entries : entry Vec.t;
  pending : entry Vec.t;
  mutable dirty : bool;
  mutable elems : int;
      (* live elements across both runs, kept current by every
         add/decrement/removal so per-tag cardinality reads are O(1)
         even while the slot is dirty *)
}

type t = {
  lists : (int, slot) Hashtbl.t;
  mutable dirty_count : int;  (* number of dirty slots, for O(1) is_dirty *)
  mutable path_ops : int;
}

let create () = { lists = Hashtbl.create 64; dirty_count = 0; path_ops = 0 }

let slot_for t tid =
  match Hashtbl.find_opt t.lists tid with
  | Some s -> s
  | None ->
    let s = { entries = Vec.create (); pending = Vec.create (); dirty = false; elems = 0 } in
    Hashtbl.add t.lists tid s;
    s

let soil t s =
  if not s.dirty then begin
    s.dirty <- true;
    t.dirty_count <- t.dirty_count + 1
  end

let add_sorted t ~tid entry ~gp_of =
  let s = slot_for t tid in
  if s.dirty then Vec.push s.pending entry (* merged on the next sort_all anyway *)
  else begin
    let gp = gp_of entry.sid in
    let i =
      Vec.lower_bound s.entries ~compare:(fun e -> if gp_of e.sid <= gp then -1 else 0)
    in
    Vec.insert_at s.entries i entry
  end;
  s.elems <- s.elems + entry.count;
  t.path_ops <- t.path_ops + 1

let append t ~tid entry =
  let s = slot_for t tid in
  Vec.push s.pending entry;
  s.elems <- s.elems + entry.count;
  soil t s;
  t.path_ops <- t.path_ops + 1

(* Merge path: sort the pending run (stably, so same-gp arrivals keep
   their order), then merge it into the main run from the back, in
   place.  Equal gps keep main-run entries first — exactly where
   repeated [add_sorted] calls would have put the newcomers, which is
   what the batched/sequential differential suite relies on. *)
let merge_slot s ~gp_of =
  let np = Vec.length s.pending in
  if np > 0 then begin
    let pend =
      Array.init np (fun i ->
          let e = Vec.get s.pending i in
          (gp_of e.sid, e))
    in
    Array.stable_sort (fun (g1, _) (g2, _) -> Int.compare g1 g2) pend;
    let n = Vec.length s.entries in
    let mgp = Array.init n (fun i -> gp_of (Vec.get s.entries i).sid) in
    for k = 0 to np - 1 do
      Vec.push s.entries (snd pend.(k))
    done;
    (* Backward merge: position [w] receives the largest remaining
       element; reads of main-run slots happen before any write can
       reach them (writes stay strictly ahead while pending entries
       remain).  Once the pending run is exhausted the main prefix is
       already in place. *)
    let i = ref (n - 1) and j = ref (np - 1) in
    let w = ref (n + np - 1) in
    while !j >= 0 do
      if !i >= 0 && mgp.(!i) > fst pend.(!j) then begin
        Vec.set s.entries !w (Vec.get s.entries !i);
        decr i
      end
      else begin
        Vec.set s.entries !w (snd pend.(!j));
        decr j
      end;
      decr w
    done;
    Vec.truncate s.pending 0
  end;
  s.dirty <- false

let sort_all t ~gp_of =
  if t.dirty_count > 0 then begin
    Hashtbl.iter (fun _ s -> if s.dirty then merge_slot s ~gp_of) t.lists;
    t.dirty_count <- 0
  end

let is_dirty t = t.dirty_count > 0
let dirty_count t = t.dirty_count

let mark_dirty t =
  (* Conservative full invalidation (benchmark helper / external
     staleness signal): every list pays the next sort_all pass. *)
  Hashtbl.iter (fun _ s -> soil t s) t.lists

(* Compact in place with a write cursor: removing k of n entries costs
   one pass and zero allocation, instead of rebuilding the whole vector
   through a temporary copy.  Removed entries leave the slot's element
   counter with them. *)
let remove_where t s v pred =
  let n = Vec.length v in
  let w = ref 0 in
  for i = 0 to n - 1 do
    let e = Vec.get v i in
    if pred e then begin
      s.elems <- s.elems - e.count;
      t.path_ops <- t.path_ops + 1
    end
    else begin
      if !w < i then Vec.set v !w e;
      incr w
    end
  done;
  if !w < n then Vec.truncate v !w

let decrement t ~tid ~sid ~by =
  match Hashtbl.find_opt t.lists tid with
  | None -> ()
  | Some s ->
    let touch v =
      Vec.iter
        (fun e ->
          if e.sid = sid then begin
            e.count <- e.count - by;
            s.elems <- s.elems - by
          end)
        v;
      remove_where t s v (fun e -> e.sid = sid && e.count <= 0)
    in
    touch s.entries;
    touch s.pending

let remove_segment t ~sid =
  Hashtbl.iter
    (fun _ s ->
      remove_where t s s.entries (fun e -> e.sid = sid);
      remove_where t s s.pending (fun e -> e.sid = sid))
    t.lists

let clone t =
  let lists = Hashtbl.create (max 16 (Hashtbl.length t.lists)) in
  (* Entry records have a mutable [count] (decremented by removes on
     the live side), so each gets a fresh record; the [path] arrays are
     write-once and shared. *)
  let copy_run v =
    Vec.of_array (Array.map (fun e -> { e with count = e.count }) (Vec.to_array v))
  in
  Hashtbl.iter
    (fun tid s ->
      Hashtbl.add lists tid
        {
          entries = copy_run s.entries;
          pending = copy_run s.pending;
          dirty = s.dirty;
          elems = s.elems;
        })
    t.lists;
  { lists; dirty_count = t.dirty_count; path_ops = t.path_ops }

let entries t ~tid =
  match Hashtbl.find_opt t.lists tid with
  | None -> [||]
  | Some s ->
    if s.dirty then raise (Dirty_tag_list tid);
    Vec.to_array s.entries

(* O(1) per-tag cardinality, readable while the slot is dirty: the two
   run lengths (and the maintained element counter) never depend on
   sortedness, unlike [entries]. *)
let tag_segments t ~tid =
  match Hashtbl.find_opt t.lists tid with
  | None -> 0
  | Some s -> Vec.length s.entries + Vec.length s.pending

let tag_elements t ~tid =
  match Hashtbl.find_opt t.lists tid with None -> 0 | Some s -> s.elems

(* Widest tag-list (in segments): the skew signal the maintenance
   scheduler prioritizes by.  O(distinct tags), no sort forced. *)
let max_segments t =
  Hashtbl.fold
    (fun _ s acc -> max acc (Vec.length s.entries + Vec.length s.pending))
    t.lists 0

let tids t = Hashtbl.fold (fun tid _ acc -> tid :: acc) t.lists [] |> List.sort Int.compare

let path_ops t = t.path_ops

let size_bytes t =
  let run v = Vec.fold_left (fun a e -> a + (8 * (Array.length e.path + 3))) 0 v in
  Hashtbl.fold (fun _ s acc -> acc + run s.entries + run s.pending) t.lists 0
