open Lxu_util

type elem = { start : int; stop : int; level : int; tid : int }

type cols = { starts : int array; stops : int array; pids : int array }

let empty_cols = { starts = [||]; stops = [||]; pids = [||] }
let cols_length c = Array.length c.starts

(* Per-tag columns of one segment: [per_tag.(i)] holds the elements of
   tag [tids.(i)]; [tids] is sorted ascending. *)
type columns = { tids : int array; per_tag : cols array }

(* Prefix sums over one segment's sorted tombstones and its children's
   lp/len; gp-free, so a version adds its own gp at use. *)
type translator = {
  tomb_starts : int array;
  tomb_stops : int array;
  tomb_before : int array;  (* [.(k)]: bytes in tombstones [0, k) *)
  kid_lps : int array;
  kid_before : int array;  (* [.(k)]: [len] of children [0, k) *)
}

(* The empty cache: compared physically, never read as a translator. *)
let no_translator =
  { tomb_starts = [||]; tomb_stops = [||]; tomb_before = [||]; kid_lps = [||]; kid_before = [||] }

type t = {
  sid : int;
  slot : int;
  gen : int;
  mutable len : int;
  lp : int;
  orig_len : int;
  base_level : int;
  text : string;
  path : int array;
  mutable ctx : int array;
  children : t Vec.t;
  mutable tombstones : (int * int) Vec.t;
  mutable elems : elem Vec.t;
  mutable columns : columns;
  mutable tr : translator;
}

(* Index of the first entry of the sorted array [a] that is [>= x]. *)
let lower_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let no_columns = { tids = [||]; per_tag = [||] }

(* Splits a start-sorted skeleton into per-tag columns, each still
   sorted by start; [pids.(i)] is element [i]'s synopsis slot. *)
let columns_of_elems elems pids =
  let n = Vec.length elems in
  if Array.length pids <> n then invalid_arg "Er_node.index: one slot per element";
  let all = Array.init n (fun i -> (Vec.get elems i).tid) in
  Array.sort Int.compare all;
  let distinct = Vec.create () in
  Array.iteri (fun i tid -> if i = 0 || all.(i - 1) <> tid then Vec.push distinct tid) all;
  let tids = Vec.to_array distinct in
  let slot tid = lower_bound tids tid in
  let counts = Array.make (Array.length tids) 0 in
  Vec.iter (fun e -> let k = slot e.tid in counts.(k) <- counts.(k) + 1) elems;
  let per_tag =
    Array.map
      (fun c -> { starts = Array.make c 0; stops = Array.make c 0; pids = Array.make c 0 })
      counts
  in
  let fill = Array.make (Array.length tids) 0 in
  Vec.iteri
    (fun j e ->
      let k = slot e.tid in
      let c = per_tag.(k) and i = fill.(k) in
      c.starts.(i) <- e.start;
      c.stops.(i) <- e.stop;
      c.pids.(i) <- pids.(j);
      fill.(k) <- i + 1)
    elems;
  { tids; per_tag }

let index t ~pids = t.columns <- columns_of_elems t.elems pids

let cols t ~tid =
  let tids = t.columns.tids in
  let i = lower_bound tids tid in
  if i < Array.length tids && tids.(i) = tid then t.columns.per_tag.(i) else empty_cols

(* Walks the skeleton once against the columns without rebuilding
   them: each element must be the next entry of its tag's columns, and
   every column must be used up.  [tids] must be strictly ascending
   (the binary search relies on it) with no empty tag.  On agreement
   returns each skeleton element's slot, read off its column entry. *)
let skeleton_pids t =
  let { tids; per_tag } = t.columns in
  let k = Array.length tids in
  let fill = Array.make k 0 in
  let pids = Array.make (Vec.length t.elems) 0 in
  let ok = ref (Array.length per_tag = k) in
  for i = 1 to k - 1 do
    if tids.(i - 1) >= tids.(i) then ok := false
  done;
  if !ok then
    Vec.iteri
      (fun x e ->
        let j = lower_bound tids e.tid in
        if j >= k || tids.(j) <> e.tid then ok := false
        else begin
          let c = per_tag.(j) and i = fill.(j) in
          if i >= cols_length c || c.starts.(i) <> e.start || c.stops.(i) <> e.stop then ok := false
          else begin
            pids.(x) <- c.pids.(i);
            fill.(j) <- i + 1
          end
        end)
      t.elems;
  if
    !ok
    && Array.for_all2
         (fun c n ->
           n > 0 && n = cols_length c && Array.length c.stops = n && Array.length c.pids = n)
         per_tag fill
  then Some pids
  else None

let remove_elements t ~vu ~vv f =
  let inside (e : elem) = e.start >= vu && e.stop <= vv in
  if Vec.exists inside t.elems then begin
    let pids =
      match skeleton_pids t with
      | Some p -> p
      | None -> invalid_arg "Er_node.remove_elements: columns disagree with the skeleton"
    in
    let kept = Vec.create () and kept_pids = Vec.create () in
    Vec.iteri
      (fun i e ->
        if inside e then f ~tid:e.tid ~pid:pids.(i)
        else begin
          Vec.push kept e;
          Vec.push kept_pids pids.(i)
        end)
      t.elems;
    (* Replaced wholesale, never edited in place: copies of the node
       and frozen readers keep the old skeleton and columns. *)
    t.elems <- kept;
    t.columns <- columns_of_elems kept (Vec.to_array kept_pids)
  end

let iter_columns t f = Array.iteri (fun i tid -> f tid t.columns.per_tag.(i)) t.columns.tids

(* Heap words of the columns, headers included: the [columns] record
   and its two arrays, then per tag one [cols] record and three
   arrays. *)
let columns_size_bytes t =
  let k = Array.length t.columns.tids in
  let words = ref (3 + (2 * (k + 1))) in
  Array.iter (fun c -> words := !words + 4 + (3 * (cols_length c + 1))) t.columns.per_tag;
  8 * !words

let make ~sid ~slot ~gen ~parent_path ~lp ~base_level ~text ~elems =
  {
    sid;
    slot;
    gen;
    len = String.length text;
    lp;
    orig_len = String.length text;
    base_level;
    text;
    path = Array.append parent_path [| sid |];
    ctx = [||];
    children = Vec.create ();
    tombstones = Vec.create ();
    elems;
    columns = no_columns;
    tr = no_translator;
  }

let make_root () =
  make ~sid:0 ~slot:0 ~gen:0 ~parent_path:[||] ~lp:0 ~base_level:0 ~text:"" ~elems:(Vec.create ())

let own ~gen n =
  if n.gen = gen then begin
    n.tr <- no_translator;
    n
  end
  else { n with gen; children = Vec.copy n.children; tr = no_translator }

let is_root t = t.sid = 0

let tombstoned_total t =
  Vec.fold_left (fun acc (a, b) -> acc + (b - a)) 0 t.tombstones

let children_len t = Vec.fold_left (fun acc c -> acc + c.len) 0 t.children

let own_len t = t.orig_len - tombstoned_total t

let tombstoned_before t x =
  Vec.fold_left
    (fun acc (a, b) -> if b <= x then acc + (b - a) else if a < x then acc + (x - a) else acc)
    0 t.tombstones

let virt_of_own_phys t p =
  let v = ref p in
  (* Tombstones are sorted; each gap at or before the running virtual
     position pushes it further right. *)
  Vec.iter
    (fun (a, b) -> if a <= !v then v := !v + (b - a))
    t.tombstones;
  !v

let virt_of_own_phys_before t p =
  let v = ref p in
  (* Strict comparison: a physical offset on a gap boundary resolves to
     the smallest equivalent virtual position (before the gap). *)
  Vec.iter
    (fun (a, b) -> if a < !v then v := !v + (b - a))
    t.tombstones;
  !v

let add_tombstone t a b =
  if a < 0 || b > t.orig_len || a >= b then invalid_arg "Er_node.add_tombstone: bad range";
  (* Merge with every overlapping or adjacent existing tombstone. *)
  let merged_a = ref a and merged_b = ref b in
  let keep = Vec.create () in
  Vec.iter
    (fun (ta, tb) ->
      if tb < !merged_a || ta > !merged_b then Vec.push keep (ta, tb)
      else begin
        merged_a := min !merged_a ta;
        merged_b := max !merged_b tb
      end)
    t.tombstones;
  Vec.push keep (!merged_a, !merged_b);
  Vec.sort (fun (x, _) (y, _) -> Int.compare x y) keep;
  t.tombstones <- keep

let depth_at t x =
  let depth = ref t.base_level in
  let i = ref 0 in
  while !i < Vec.length t.elems && (Vec.get t.elems !i).start < x do
    let e = Vec.get t.elems !i in
    if e.stop > x then incr depth;
    incr i
  done;
  !depth

let child_index_for_gp ~gps t gp =
  Vec.lower_bound t.children ~compare:(fun c -> if gps.(c.slot) <= gp then -1 else 0)

let sum_children_upto t x ~incl_eq =
  Vec.fold_left
    (fun acc c -> if c.lp < x || (incl_eq && c.lp = x) then acc + c.len else acc)
    0 t.children

let global_extent_span ~gp t ~start ~stop =
  let gstart = gp + (start - tombstoned_before t start) + sum_children_upto t start ~incl_eq:true in
  let gstop = gp + (stop - tombstoned_before t stop) + sum_children_upto t stop ~incl_eq:false in
  (gstart, gstop)

let global_extent ~gp t e = global_extent_span ~gp t ~start:e.start ~stop:e.stop

let prefix_sums n f =
  let a = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    a.(i + 1) <- a.(i) + f i
  done;
  a

let build_translator t =
  let tombs = Vec.to_array t.tombstones and kids = Vec.to_array t.children in
  {
    tomb_starts = Array.map fst tombs;
    tomb_stops = Array.map snd tombs;
    tomb_before = prefix_sums (Array.length tombs) (fun i -> snd tombs.(i) - fst tombs.(i));
    kid_lps = Array.map (fun c -> c.lp) kids;
    kid_before = prefix_sums (Array.length kids) (fun i -> kids.(i).len);
  }

(* Racing readers of one published record may both build and store:
   they store equal values, and a reader sees either the sentinel or a
   complete translator. *)
let translator t =
  if t.tr != no_translator then t.tr
  else begin
    let tr = build_translator t in
    t.tr <- tr;
    tr
  end

(* Whether [a.(i)] counts as before [x]: [< x], or [<= x] with
   [incl_eq]. *)
let before (a : int array) i x ~incl_eq =
  let v = Array.unsafe_get a i in
  v < x || (incl_eq && v = x)

(* Number of entries of the sorted array [a] that are before [x]. *)
let count_below a x ~incl_eq =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if before a mid x ~incl_eq then lo := mid + 1 else hi := mid
  done;
  !lo

(* [count_below a x] given that at least [from] entries are before
   [x]: gallops forward from [from] in doubling steps, then binary
   searches the last step — O(log gap), so a forward walk over the
   whole array costs O(length) in total. *)
let gallop a from x ~incl_eq =
  let n = Array.length a in
  if from >= n || not (before a from x ~incl_eq) then from
  else begin
    (* [lo] is before [x]; [hi] is not, or is [n]. *)
    let lo = ref from and step = ref 1 in
    while !lo + !step < n && before a (!lo + !step) x ~incl_eq do
      lo := !lo + !step;
      step := 2 * !step
    done;
    let hi = ref (min n (!lo + !step)) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) lsr 1 in
      if before a mid x ~incl_eq then lo := mid else hi := mid
    done;
    !hi
  end

(* A seat holds, for its last offset [x], how many tombstones start
   before [x] and how many children hook before it (or at it, on a
   start seat).  [x = max_int] means not yet seated: every real offset
   is then a step back, which seats by binary search. *)
type seat = { mutable x : int; mutable tomb : int; mutable kid : int }

type cursor = { tr : translator; base : int; starts : seat; stops : seat }

let cursor tr ~gp =
  { tr; base = gp; starts = { x = max_int; tomb = 0; kid = 0 }; stops = { x = max_int; tomb = 0; kid = 0 } }

(* Tombstones are sorted and disjoint, so of those starting before [x]
   only the last can extend past it. *)
let translate tr ~base s x ~incl_eq =
  if x < s.x then begin
    s.tomb <- count_below tr.tomb_starts x ~incl_eq:false;
    s.kid <- count_below tr.kid_lps x ~incl_eq
  end
  else if x > s.x then begin
    s.tomb <- gallop tr.tomb_starts s.tomb x ~incl_eq:false;
    s.kid <- gallop tr.kid_lps s.kid x ~incl_eq
  end;
  s.x <- x;
  let k = s.tomb in
  let dead = if k = 0 then 0 else tr.tomb_before.(k) - max 0 (tr.tomb_stops.(k - 1) - x) in
  base + (x - dead) + tr.kid_before.(s.kid)

let cursor_start c x = translate c.tr ~base:c.base c.starts x ~incl_eq:true
let cursor_stop c x = translate c.tr ~base:c.base c.stops x ~incl_eq:false

let rec iter_subtree t f =
  f t;
  Vec.iter (fun c -> iter_subtree c f) t.children

let check ~gps t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec go n =
    if n.len <> own_len n + children_len n then
      fail "segment %d: len %d <> own %d + children %d" n.sid n.len (own_len n)
        (children_len n);
    if is_root n && gps.(n.slot) <> 0 then fail "root gp moved to %d" gps.(n.slot);
    (* Tombstones: sorted, disjoint, within the original text. *)
    let prev_stop = ref (-1) in
    Vec.iter
      (fun (a, b) ->
        if a >= b || a < 0 || b > n.orig_len then fail "segment %d: bad tombstone" n.sid;
        if a <= !prev_stop then fail "segment %d: tombstones overlap or touch" n.sid;
        prev_stop := b)
      n.tombstones;
    (* Elements: strictly ordered starts, proper nesting, sane extents. *)
    let stack = ref [] in
    let prev_start = ref (-1) in
    Vec.iter
      (fun e ->
        if e.start >= e.stop || e.start < 0 || e.stop > n.orig_len then
          fail "segment %d: element extent [%d,%d) out of range" n.sid e.start e.stop;
        if e.start <= !prev_start then fail "segment %d: element starts not increasing" n.sid;
        prev_start := e.start;
        while (match !stack with top :: _ -> top.stop <= e.start | [] -> false) do
          stack := List.tl !stack
        done;
        (match !stack with
        | top :: _ when top.stop < e.stop -> fail "segment %d: elements overlap" n.sid
        | _ -> ());
        if e.level < n.base_level then fail "segment %d: element above base level" n.sid;
        stack := e :: !stack)
      n.elems;
    (* Children: inside the parent span, disjoint, gp- and lp-sorted. *)
    let cursor = ref gps.(n.slot) in
    let prev_lp = ref min_int in
    Vec.iter
      (fun c ->
        let depth = Array.length n.path in
        if not
             (Array.length c.path = depth + 1
             && c.path.(depth) = c.sid
             && Array.sub c.path 0 depth = n.path)
        then fail "segment %d: child %d has wrong ancestry" n.sid c.sid;
        if c.gen > n.gen then
          fail "segment %d: child %d is newer than its parent (generation %d > %d)" n.sid c.sid
            c.gen n.gen;
        let gp = gps.(c.slot) in
        if gp < !cursor then fail "segment %d: children overlap at %d" n.sid c.sid;
        if gp + c.len > gps.(n.slot) + n.len then fail "segment %d: child %d escapes" n.sid c.sid;
        if c.lp < !prev_lp then fail "segment %d: child lps out of order" n.sid;
        if c.lp < 0 || c.lp > n.orig_len then fail "segment %d: child %d lp out of range" n.sid c.sid;
        prev_lp := c.lp;
        cursor := gp + c.len;
        go c)
      n.children
  in
  go t
