open Lxu_util

type elem = { start : int; stop : int; level : int; tid : int }

type cols = { starts : int array; stops : int array; levels : int array }

let empty_cols = { starts = [||]; stops = [||]; levels = [||] }
let cols_length c = Array.length c.starts

(* Per-tag columns of one segment: [per_tag.(i)] holds the elements of
   tag [tids.(i)]; [tids] is sorted ascending. *)
type columns = { tids : int array; per_tag : cols array }

type t = {
  sid : int;
  mutable gp : int;
  mutable len : int;
  lp : int;
  orig_len : int;
  base_level : int;
  text : string;
  mutable parent : t option;
  children : t Vec.t;
  tombstones : (int * int) Vec.t;
  mutable elems : elem Vec.t;
  mutable columns : columns;
}

(* Index of the first entry of the sorted array [tids] that is [>= tid]. *)
let tid_slot tids tid =
  let lo = ref 0 and hi = ref (Array.length tids) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get tids mid < tid then lo := mid + 1 else hi := mid
  done;
  !lo

(* Splits a start-sorted skeleton into per-tag columns, each still
   sorted by start. *)
let columns_of_elems elems =
  let n = Vec.length elems in
  let all = Array.init n (fun i -> (Vec.get elems i).tid) in
  Array.sort Int.compare all;
  let distinct = Vec.create () in
  Array.iteri (fun i tid -> if i = 0 || all.(i - 1) <> tid then Vec.push distinct tid) all;
  let tids = Vec.to_array distinct in
  let slot tid = tid_slot tids tid in
  let counts = Array.make (Array.length tids) 0 in
  Vec.iter (fun e -> let k = slot e.tid in counts.(k) <- counts.(k) + 1) elems;
  let per_tag =
    Array.map
      (fun c -> { starts = Array.make c 0; stops = Array.make c 0; levels = Array.make c 0 })
      counts
  in
  let fill = Array.make (Array.length tids) 0 in
  Vec.iter
    (fun e ->
      let k = slot e.tid in
      let c = per_tag.(k) and i = fill.(k) in
      c.starts.(i) <- e.start;
      c.stops.(i) <- e.stop;
      c.levels.(i) <- e.level;
      fill.(k) <- i + 1)
    elems;
  { tids; per_tag }

let set_elems t elems =
  t.elems <- elems;
  t.columns <- columns_of_elems elems

let cols t ~tid =
  let tids = t.columns.tids in
  let i = tid_slot tids tid in
  if i < Array.length tids && tids.(i) = tid then t.columns.per_tag.(i) else empty_cols

(* Walks the skeleton once against the columns without rebuilding
   them: each element must be the next entry of its tag's columns, and
   every column must be used up.  [tids] must be strictly ascending
   (the binary search relies on it) with no empty tag. *)
let columns_agree t =
  let { tids; per_tag } = t.columns in
  let k = Array.length tids in
  let fill = Array.make k 0 in
  let ok = ref (Array.length per_tag = k) in
  for i = 1 to k - 1 do
    if tids.(i - 1) >= tids.(i) then ok := false
  done;
  if !ok then
    Vec.iter
      (fun e ->
        let j = tid_slot tids e.tid in
        if j >= k || tids.(j) <> e.tid then ok := false
        else begin
          let c = per_tag.(j) and i = fill.(j) in
          if i >= cols_length c || c.starts.(i) <> e.start || c.stops.(i) <> e.stop
             || c.levels.(i) <> e.level
          then ok := false
          else fill.(j) <- i + 1
        end)
      t.elems;
  !ok
  && Array.for_all2
       (fun c n ->
         n > 0 && n = cols_length c && Array.length c.stops = n && Array.length c.levels = n)
       per_tag fill

let iter_columns t f = Array.iteri (fun i tid -> f tid t.columns.per_tag.(i)) t.columns.tids

(* Heap words of the columns, headers included: the [columns] record
   and its two arrays, then per tag one [cols] record and three
   arrays. *)
let columns_size_bytes t =
  let k = Array.length t.columns.tids in
  let words = ref (3 + (2 * (k + 1))) in
  Array.iter (fun c -> words := !words + 4 + (3 * (cols_length c + 1))) t.columns.per_tag;
  8 * !words

let make ~sid ~gp ~lp ~base_level ~text ~elems =
  let elems = Vec.of_list elems in
  {
    sid;
    gp;
    len = String.length text;
    lp;
    orig_len = String.length text;
    base_level;
    text;
    parent = None;
    children = Vec.create ();
    tombstones = Vec.create ();
    elems;
    columns = columns_of_elems elems;
  }

let make_root () = make ~sid:0 ~gp:0 ~lp:0 ~base_level:0 ~text:"" ~elems:[]

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
  Vec.clear t.tombstones;
  Vec.iter (Vec.push t.tombstones) keep

let depth_at t x =
  let depth = ref t.base_level in
  let i = ref 0 in
  while !i < Vec.length t.elems && (Vec.get t.elems !i).start < x do
    let e = Vec.get t.elems !i in
    if e.stop > x then incr depth;
    incr i
  done;
  !depth

let path t =
  let rec up acc n = match n.parent with None -> n.sid :: acc | Some p -> up (n.sid :: acc) p in
  Array.of_list (up [] t)

let child_index_for_gp t gp =
  Vec.lower_bound t.children ~compare:(fun c -> if c.gp <= gp then -1 else 0)

let sum_children_upto t x ~incl_eq =
  Vec.fold_left
    (fun acc c -> if c.lp < x || (incl_eq && c.lp = x) then acc + c.len else acc)
    0 t.children

let global_extent_span t ~start ~stop =
  let gstart = t.gp + (start - tombstoned_before t start) + sum_children_upto t start ~incl_eq:true in
  let gstop = t.gp + (stop - tombstoned_before t stop) + sum_children_upto t stop ~incl_eq:false in
  (gstart, gstop)

let global_extent t e = global_extent_span t ~start:e.start ~stop:e.stop

type translator = {
  base : int;  (* [gp] at build time *)
  tomb_starts : int array;
  tomb_stops : int array;
  tomb_before : int array;  (* [.(k)]: bytes in tombstones [0, k) *)
  kid_lps : int array;
  kid_before : int array;  (* [.(k)]: [len] of children [0, k) *)
}

let prefix_sums n f =
  let a = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    a.(i + 1) <- a.(i) + f i
  done;
  a

let translator t =
  let tombs = Vec.to_array t.tombstones and kids = Vec.to_array t.children in
  {
    base = t.gp;
    tomb_starts = Array.map fst tombs;
    tomb_stops = Array.map snd tombs;
    tomb_before = prefix_sums (Array.length tombs) (fun i -> snd tombs.(i) - fst tombs.(i));
    kid_lps = Array.map (fun c -> c.lp) kids;
    kid_before = prefix_sums (Array.length kids) (fun i -> kids.(i).len);
  }

(* Number of entries of the sorted array [a] that are [< x], or [<= x]
   with [incl_eq]. *)
let count_below a x ~incl_eq =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get a mid in
    if v < x || (incl_eq && v = x) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Tombstones are sorted and disjoint, so of those starting before [x]
   only the last can extend past it. *)
let translate tr x ~incl_eq =
  let k = count_below tr.tomb_starts x ~incl_eq:false in
  let dead = if k = 0 then 0 else tr.tomb_before.(k) - max 0 (tr.tomb_stops.(k - 1) - x) in
  tr.base + (x - dead) + tr.kid_before.(count_below tr.kid_lps x ~incl_eq)

let global_start tr x = translate tr x ~incl_eq:true
let global_stop tr x = translate tr x ~incl_eq:false

let rec iter_subtree t f =
  f t;
  Vec.iter (fun c -> iter_subtree c f) t.children

let rec clone n =
  (* [text] is immutable and [elems] and [columns] are only ever
     replaced wholesale by [set_elems] (never mutated in place), so all
     three are shared; [tombstones] and [children] are mutated in place
     by updates and get fresh Vecs. *)
  let c =
    {
      sid = n.sid;
      gp = n.gp;
      len = n.len;
      lp = n.lp;
      orig_len = n.orig_len;
      base_level = n.base_level;
      text = n.text;
      parent = None;
      children = Vec.create ();
      tombstones = Vec.of_array (Vec.to_array n.tombstones);
      elems = n.elems;
      columns = n.columns;
    }
  in
  Vec.iter
    (fun k ->
      let kc = clone k in
      kc.parent <- Some c;
      Vec.push c.children kc)
    n.children;
  c

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec go n =
    if n.len <> own_len n + children_len n then
      fail "segment %d: len %d <> own %d + children %d" n.sid n.len (own_len n)
        (children_len n);
    if is_root n && n.gp <> 0 then fail "root gp moved to %d" n.gp;
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
    let cursor = ref n.gp in
    let prev_lp = ref min_int in
    Vec.iter
      (fun c ->
        (match c.parent with
        | Some p when p == n -> ()
        | _ -> fail "segment %d: child %d has wrong parent" n.sid c.sid);
        if c.gp < !cursor then fail "segment %d: children overlap at %d" n.sid c.sid;
        if c.gp + c.len > n.gp + n.len then fail "segment %d: child %d escapes" n.sid c.sid;
        if c.lp < !prev_lp then fail "segment %d: child lps out of order" n.sid;
        if c.lp < 0 || c.lp > n.orig_len then fail "segment %d: child %d lp out of range" n.sid c.sid;
        prev_lp := c.lp;
        cursor := c.gp + c.len;
        go c)
      n.children
  in
  go t
