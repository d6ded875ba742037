open Lxu_util

type entry = { sid : int; path : int array; count : int }

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
   merges it in ([merge_slot]) instead of re-sorting the whole list.
   Clean slots have an empty pending run.

   Slots are shared with frozen snapshots.  [gen] is the generation the
   slot was made or copied in: the live list changes a slot in place
   only when it is of the list's current generation, and copies it
   first otherwise ([own]); entries are immutable and shared by both
   copies. *)
type slot = {
  gen : int;
  entries : entry Vec.t;
  pending : entry Vec.t;
  mutable dirty : bool;
  mutable elems : int;
      (* live elements across both runs, kept current by every
         add/decrement/removal so per-tag cardinality reads are O(1)
         even while the slot is dirty *)
}

(* [slots] is indexed by tid; [absent] (compared physically) marks a
   tag never appended.  The array itself is shared with snapshots too:
   [slots_gen] is the generation it was copied in. *)
type t = {
  mutable slots : slot array;
  mutable slots_gen : int;
  mutable gen : int;
  mutable dirty_count : int;  (* number of dirty slots, for O(1) is_dirty *)
  mutable path_ops : int;
}

let absent = { gen = -1; entries = Vec.create (); pending = Vec.create (); dirty = false; elems = 0 }

let create () = { slots = [||]; slots_gen = 0; gen = 0; dirty_count = 0; path_ops = 0 }

let find t tid =
  if tid >= 0 && tid < Array.length t.slots then
    let s = t.slots.(tid) in
    if s == absent then None else Some s
  else None

let iter_slots t f = Array.iteri (fun tid s -> if s != absent then f tid s) t.slots

let freeze t =
  let snap = { t with slots = t.slots } in
  t.gen <- t.gen + 1;
  snap

(* The slot of [tid], changeable in place by the live list: the slot
   array and the slot are copied first when a snapshot shares them. *)
let own t tid =
  if t.slots_gen <> t.gen then begin
    t.slots <- Array.copy t.slots;
    t.slots_gen <- t.gen
  end;
  if tid >= Array.length t.slots then begin
    let bigger = Array.make (max (tid + 1) (2 * Array.length t.slots)) absent in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end;
  let s = t.slots.(tid) in
  if s.gen = t.gen then s
  else begin
    let c =
      if s == absent then
        { gen = t.gen; entries = Vec.create (); pending = Vec.create (); dirty = false; elems = 0 }
      else { s with gen = t.gen; entries = Vec.copy s.entries; pending = Vec.copy s.pending }
    in
    t.slots.(tid) <- c;
    c
  end

let soil t s =
  if not s.dirty then begin
    s.dirty <- true;
    t.dirty_count <- t.dirty_count + 1
  end

let append t ~tid entry =
  let s = own t tid in
  Vec.push s.pending entry;
  s.elems <- s.elems + entry.count;
  soil t s;
  t.path_ops <- t.path_ops + 1

(* Merge path: sort the pending run (stably, so same-gp arrivals keep
   their order), then merge it into the main run from the back, in
   place.  Equal gps keep main-run entries first, so an entry that
   arrives alone lands after every main-run entry at its gp.

   The merge gallops: for each pending entry, largest first, it finds
   the main-run entries that go after it by an exponential search back
   from the last insertion point, then a binary search inside the last
   step.  Main-run gps are looked up only at the probed positions, so
   a merge costs O(p·log(n/p + 1)) gp lookups for p pending entries in
   a list of n — O(log n) for the single entry every one-segment insert
   brings.  The main-run entries between two insertion points move
   with one blit, so the moves stay one shift of the entries behind
   the first insertion point. *)
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
    for k = 0 to np - 1 do
      Vec.push s.entries (snd pend.(k))
    done;
    let gp_at k = gp_of (Vec.get s.entries k).sid in
    (* Main-run entries [0, !i] are still unmerged, slots above [!w]
       are final; [!w > !i] while pending entries remain, so no write
       reaches an unread main-run slot. *)
    let i = ref (n - 1) and w = ref (n + np - 1) in
    for j = np - 1 downto 0 do
      let g, e = pend.(j) in
      (* First main-run index in [0, !i + 1) whose gp exceeds [g]:
         [lo] has gp <= g (or is -1), [hi] has gp > g. *)
      let first_after =
        if !i < 0 || gp_at !i <= g then !i + 1
        else begin
          let hi = ref !i and lo = ref (-1) and step = ref 1 in
          let searching = ref true in
          while !searching do
            let k = !hi - !step in
            if k < 0 then searching := false
            else if gp_at k <= g then begin
              lo := k;
              searching := false
            end
            else begin
              hi := k;
              step := 2 * !step
            end
          done;
          while !hi - !lo > 1 do
            let mid = (!lo + !hi) / 2 in
            if gp_at mid <= g then lo := mid else hi := mid
          done;
          !hi
        end
      in
      let moved = !i + 1 - first_after in
      Vec.move s.entries ~src:first_after ~dst:(!w - moved + 1) ~len:moved;
      w := !w - moved;
      i := first_after - 1;
      Vec.set s.entries !w e;
      decr w
    done;
    Vec.truncate s.pending 0
  end;
  s.dirty <- false

let sort_all t ~gp_of =
  if t.dirty_count > 0 then begin
    iter_slots t (fun tid s -> if s.dirty then merge_slot (own t tid) ~gp_of);
    t.dirty_count <- 0
  end

let is_dirty t = t.dirty_count > 0
let dirty_count t = t.dirty_count

let mark_dirty t =
  (* Conservative full invalidation (benchmark helper / external
     staleness signal): every list pays the next sort_all pass. *)
  iter_slots t (fun tid s -> if not s.dirty then soil t (own t tid))

(* Lowers the count of every entry of [sid] in [tid]'s list by [by e]
   and drops an entry whose count reaches zero.  The main run is sorted
   by gp, so its entries of [sid] sit in the run of entries at [gp]
   (the segment's own): a binary search finds the run's start and a
   step across the whole run, in whatever order it holds its
   segments, the sid, calling [gp_of] on O(log n + the run) entries.
   The pending run is unsorted and scanned.  A decrement replaces the entry: entries are shared with
   snapshots. *)
let lower t ~tid ~sid ~gp ~gp_of by =
  match find t tid with
  | None -> ()
  | Some _ ->
    let s = own t tid in
    (* The index after entry [i] of [v] once it is lowered. *)
    let lower_at v i =
      let e = Vec.get v i in
      let by = by e in
      if e.count > by then begin
        s.elems <- s.elems - by;
        Vec.set v i { e with count = e.count - by };
        i + 1
      end
      else begin
        s.elems <- s.elems - e.count;
        ignore (Vec.remove_at v i);
        t.path_ops <- t.path_ops + 1;
        i
      end
    in
    let main = s.entries in
    let rec step i =
      if i < Vec.length main then begin
        let e = Vec.get main i in
        if e.sid = sid then step (lower_at main i)
        else if gp_of e.sid = gp then step (i + 1)
      end
    in
    step (Vec.lower_bound main ~compare:(fun e -> if gp_of e.sid < gp then -1 else 0));
    let pending = s.pending in
    let rec scan i =
      if i < Vec.length pending then
        scan (if (Vec.get pending i).sid = sid then lower_at pending i else i + 1)
    in
    scan 0

let decrement t ~tid ~sid ~gp ~gp_of ~by = lower t ~tid ~sid ~gp ~gp_of (fun _ -> by)

let remove_segment t ~sid ~gp ~tids ~gp_of =
  Array.iter (fun tid -> lower t ~tid ~sid ~gp ~gp_of (fun e -> e.count)) tids

(* Each main run in gp order, which the keyed search in [lower]
   relies on, and equal gps only where the earlier entry's segment is
   an ancestor of the later one's, which the join's segment merge
   ([Lazy_join.plan]'s [precedes]) relies on. *)
let check t ~gp_of =
  iter_slots t (fun tid s ->
      let v = s.entries in
      if Vec.length v > 0 then begin
        let ga = ref (gp_of (Vec.get v 0).sid) in
        for i = 1 to Vec.length v - 1 do
          let a = Vec.get v (i - 1) and b = Vec.get v i in
          let gb = gp_of b.sid in
          let d = Array.length a.path in
          if !ga > gb || (!ga = gb && not (d < Array.length b.path && b.path.(d - 1) = a.sid))
          then
            failwith
              (Printf.sprintf
                 "tag %d: segment %d (gp %d) precedes segment %d (gp %d) in the tag list" tid
                 a.sid !ga b.sid gb);
          ga := gb
        done
      end)

let iter_entries t f =
  iter_slots t (fun tid s ->
      Vec.iter (f ~tid) s.entries;
      Vec.iter (f ~tid) s.pending)

let entries t ~tid =
  match find t tid with
  | None -> [||]
  | Some s ->
    if s.dirty then raise (Dirty_tag_list tid);
    Vec.to_array s.entries

(* O(1) per-tag cardinality, readable while the slot is dirty: the two
   run lengths (and the maintained element counter) never depend on
   sortedness, unlike [entries]. *)
let tag_segments t ~tid =
  match find t tid with
  | None -> 0
  | Some s -> Vec.length s.entries + Vec.length s.pending

let tag_elements t ~tid =
  match find t tid with None -> 0 | Some s -> s.elems

(* Widest tag-list (in segments): the skew signal the maintenance
   scheduler prioritizes by.  O(distinct tags), no sort forced. *)
let max_segments t =
  let m = ref 0 in
  iter_slots t (fun _ s -> m := max !m (Vec.length s.entries + Vec.length s.pending));
  !m

let path_ops t = t.path_ops

let size_bytes t =
  let run v = Vec.fold_left (fun a e -> a + (8 * (Array.length e.path + 3))) 0 v in
  let n = ref 0 in
  iter_slots t (fun _ s -> n := !n + run s.entries + run s.pending);
  !n
