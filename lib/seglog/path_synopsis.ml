open Lxu_util

(* Counts live in a flat array indexed by an append-only path -> slot
   table, not in per-path ref cells, and [clone] is copy-on-write:
   MVCC publishes a frozen clone after every committing write, so the
   clone itself is O(1).  The frozen side shares
   [index], [counts] and [tag_counts] outright (it never mutates); the
   live side copies a shared structure right before its first mutation
   after a freeze — one flat [Array.copy] per write for the counts,
   and a bucket-level [Hashtbl.copy] of the index only when a {e new}
   distinct path appears, which steady-state traffic almost never
   does.  Slots whose count returns to zero are kept (the table only
   ever grows to the number of distinct paths ever seen). *)
type t = {
  mutable index : (int array, int) Hashtbl.t;
      (* root-to-element tag-id path -> slot.  Key arrays are
         write-once and shared with clones; slots are never removed. *)
  mutable index_shared : bool;
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

let elements t = t.elems
let distinct_paths t = t.live_paths

let tag_total t ~tid =
  if tid >= 0 && tid < Array.length t.tag_counts then t.tag_counts.(tid) else 0

let bump_total t tid d =
  if tid >= Array.length t.tag_counts then begin
    let na = Array.make (max (tid + 1) (2 * Array.length t.tag_counts)) 0 in
    Array.blit t.tag_counts 0 na 0 (Array.length t.tag_counts);
    t.tag_counts <- na
  end;
  t.tag_counts.(tid) <- t.tag_counts.(tid) + d

let slot_for t key =
  match Hashtbl.find_opt t.index key with
  | Some s -> s
  | None ->
    if t.index_shared then begin
      t.index <- Hashtbl.copy t.index;
      t.index_shared <- false
    end;
    let s = t.n_slots in
    if s >= Array.length t.counts then begin
      let na = Array.make (max 16 (2 * Array.length t.counts)) 0 in
      Array.blit t.counts 0 na 0 (Array.length t.counts);
      t.counts <- na;
      t.counts_shared <- false
    end;
    t.n_slots <- s + 1;
    Hashtbl.add t.index key s;
    s

(* Walks [elems] (sorted by virtual start, properly nested) with an
   ancestor stack and hands [f] each element's full root-to-element
   path in a scratch buffer: [ctx_tids], then the tags of the enclosing
   fragment elements, then the element's own tag.  The buffer is only
   valid for the duration of the call.  [until] stops the walk at the
   first element starting at or past that virtual position — sound
   whenever the caller only cares about elements starting before it. *)
let iter_element_paths ?(until = max_int) ~ctx_tids elems f =
  let nctx = Array.length ctx_tids in
  let buf = ref (Array.make (nctx + 16) 0) in
  Array.blit ctx_tids 0 !buf 0 nctx;
  let stops = ref (Array.make 16 0) in
  let depth = ref 0 in
  try
    Vec.iter
      (fun (e : Er_node.elem) ->
        if e.Er_node.start >= until then raise Exit;
        while !depth > 0 && !stops.(!depth - 1) <= e.Er_node.start do
          decr depth
        done;
        let len = nctx + !depth + 1 in
        if len > Array.length !buf then begin
          let nb = Array.make (2 * len) 0 in
          Array.blit !buf 0 nb 0 (Array.length !buf);
          buf := nb
        end;
        !buf.(len - 1) <- e.Er_node.tid;
        f !buf len e;
        (* Push after the call: the slot written above doubles as the
           stack entry for elements nested inside [e]. *)
        if !depth = Array.length !stops then begin
          let ns = Array.make (2 * !depth) 0 in
          Array.blit !stops 0 ns 0 !depth;
          stops := ns
        end;
        !stops.(!depth) <- e.Er_node.stop;
        incr depth)
      elems
  with Exit -> ()

let add_segment t ~ctx_tids ~elems =
  own_counts t;
  (* Sibling runs repeat the same path back to back, so memoize the
     last slot and skip the hash round-trip for repeats. *)
  let last_key = ref [||] in
  let last_slot = ref (-1) in
  iter_element_paths ~ctx_tids elems (fun buf len e ->
      bump_total t e.Er_node.tid 1;
      t.elems <- t.elems + 1;
      let lk = !last_key in
      let same =
        Array.length lk = len
        &&
        let rec eq i = i >= len || (lk.(i) = buf.(i) && eq (i + 1)) in
        eq 0
      in
      let s =
        if same then !last_slot
        else begin
          let key = Array.sub buf 0 len in
          let s = slot_for t key in
          last_key := key;
          last_slot := s;
          s
        end
      in
      if t.counts.(s) = 0 then t.live_paths <- t.live_paths + 1;
      t.counts.(s) <- t.counts.(s) + 1)

let remove_matching ?until t ~ctx_tids ~elems ~removed =
  own_counts t;
  iter_element_paths ?until ~ctx_tids elems (fun buf len e ->
      if removed e then begin
        bump_total t e.Er_node.tid (-1);
        t.elems <- t.elems - 1;
        let key = Array.sub buf 0 len in
        match Hashtbl.find_opt t.index key with
        | Some s when t.counts.(s) > 0 ->
          t.counts.(s) <- t.counts.(s) - 1;
          if t.counts.(s) = 0 then t.live_paths <- t.live_paths - 1
        | Some _ | None -> ()
      end)

let remove_segment t ~ctx_tids ~elems = remove_matching t ~ctx_tids ~elems ~removed:(fun _ -> true)

let iter t f =
  let counts = t.counts in
  Hashtbl.iter
    (fun k s ->
      let c = counts.(s) in
      if c > 0 then f k c)
    t.index

let to_sorted_list t =
  let counts = t.counts in
  Hashtbl.fold
    (fun k s acc ->
      let c = counts.(s) in
      if c > 0 then (Array.to_list k, c) :: acc else acc)
    t.index []
  |> List.sort compare

let equal a b =
  a.elems = b.elems
  && a.live_paths = b.live_paths
  && Hashtbl.fold
       (fun k s ok ->
         ok
         &&
         let c = a.counts.(s) in
         c = 0
         ||
         match Hashtbl.find_opt b.index k with
         | Some s' -> b.counts.(s') = c
         | None -> false)
       a.index true

let size_bytes t =
  let paths =
    Hashtbl.fold (fun k _ acc -> acc + (8 * (Array.length k + 3))) t.index 0
  in
  paths + (8 * (Array.length t.counts + Array.length t.tag_counts))
