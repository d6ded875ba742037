open Lxu_util

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
  text : string;
  path : int array;
  mutable ctx : int array;
  children : t Vec.t;
  mutable tombstones : (int * int) Vec.t;
  mutable columns : columns;
  mutable tr : translator;
}

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

let no_columns = { tids = [||]; per_tag = [||] }

(* Splits a segment's elements, given in document order as parallel
   arrays, into per-tag columns by a stable counting sort of the
   element indices on tag id, so each tag's run keeps document order.
   The count table has one entry per id in the segment's span, up to
   256; ids spanning more are sorted a byte at a time, low byte first
   (LSD radix).  The table is sized by the span because most inserts
   are a few elements, where zeroing and summing 256 entries cost
   more than a comparison sort. *)
let columns_of ~tids ~starts ~stops ~pids =
  let n = Array.length tids in
  if Array.length starts <> n || Array.length stops <> n || Array.length pids <> n then
    invalid_arg "Er_node.columns_of: one start, stop and slot per element";
  let lo = ref max_int and hi = ref 0 in
  Array.iter
    (fun tid ->
      if tid < 0 then invalid_arg "Er_node.columns_of: negative tag id";
      if tid < !lo then lo := tid;
      if tid > !hi then hi := tid)
    tids;
  let lo = !lo and span = if n = 0 then 0 else !hi - !lo in
  let order = ref (Array.init n Fun.id) and spare = ref (Array.make n 0) in
  let buckets = if span < 256 then span + 1 else 256 in
  let count = Array.make buckets 0 and shift = ref 0 in
  while !shift < Sys.int_size && span lsr !shift > 0 do
    let src = !order and dst = !spare and sh = !shift in
    let digit j = ((tids.(j) - lo) lsr sh) land 0xff in
    Array.fill count 0 buckets 0;
    Array.iter
      (fun j ->
        let d = digit j in
        count.(d) <- count.(d) + 1)
      src;
    let sum = ref 0 in
    for d = 0 to buckets - 1 do
      let c = count.(d) in
      count.(d) <- !sum;
      sum := !sum + c
    done;
    Array.iter
      (fun j ->
        let d = digit j in
        dst.(count.(d)) <- j;
        count.(d) <- count.(d) + 1)
      src;
    order := dst;
    spare := src;
    shift := sh + 8
  done;
  let order = !order in
  let k = ref 0 in
  for r = 0 to n - 1 do
    if r = 0 || tids.(order.(r)) <> tids.(order.(r - 1)) then incr k
  done;
  let out_tids = Array.make !k 0 and per_tag = Array.make !k empty_cols in
  let r = ref 0 in
  for g = 0 to !k - 1 do
    let first = !r and tid = tids.(order.(!r)) in
    while !r < n && tids.(order.(!r)) = tid do
      incr r
    done;
    let len = !r - first in
    let s = Array.make len 0 and e = Array.make len 0 and p = Array.make len 0 in
    for x = 0 to len - 1 do
      let j = order.(first + x) in
      s.(x) <- starts.(j);
      e.(x) <- stops.(j);
      p.(x) <- pids.(j)
    done;
    out_tids.(g) <- tid;
    per_tag.(g) <- { starts = s; stops = e; pids = p }
  done;
  { tids = out_tids; per_tag }

let cols t ~tid =
  let tids = t.columns.tids in
  let i = count_below tids tid ~incl_eq:false in
  if i < Array.length tids && tids.(i) = tid then t.columns.per_tag.(i) else empty_cols

let element_count t = Array.fold_left (fun acc c -> acc + cols_length c) 0 t.columns.per_tag

(* Always copies when it drops: columns are shared with node copies,
   frozen snapshots and captured join units. *)
let cols_filter keep c =
  let n = cols_length c in
  let kept = ref 0 in
  let mask = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    if keep i then begin
      Bytes.unsafe_set mask i '\001';
      incr kept
    end
  done;
  if !kept = n then c
  else if !kept = 0 then empty_cols
  else begin
    let starts = Array.make !kept 0
    and stops = Array.make !kept 0
    and pids = Array.make !kept 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i = '\001' then begin
        starts.(!j) <- c.starts.(i);
        stops.(!j) <- c.stops.(i);
        pids.(!j) <- c.pids.(i);
        incr j
      end
    done;
    { starts; stops; pids }
  end

let remove_elements t ~vu ~vv f =
  let { tids; per_tag } = t.columns in
  let kept =
    Array.mapi
      (fun k c ->
        (* Starts ascend, so only the run starting in [vu, vv) can lie
           inside the range: a tag without one keeps its columns. *)
        let lo = count_below c.starts vu ~incl_eq:false in
        let hi = count_below c.starts vv ~incl_eq:false in
        if lo = hi then c
        else
          cols_filter
            (fun i ->
              let inside = i >= lo && i < hi && c.stops.(i) <= vv in
              if inside then f ~tid:tids.(k) ~pid:c.pids.(i);
              not inside)
            c)
      per_tag
  in
  if Array.exists2 ( != ) kept per_tag then begin
    let live = List.filter (fun k -> cols_length kept.(k) > 0) (List.init (Array.length kept) Fun.id) in
    let pick a = Array.of_list (List.map (Array.get a) live) in
    t.columns <- { tids = pick tids; per_tag = pick kept }
  end

let iter_columns t f = Array.iteri (fun i tid -> f tid t.columns.per_tag.(i)) t.columns.tids

let iter_elements t f =
  let { tids; per_tag } = t.columns in
  let k = Array.length per_tag in
  (* A binary min-heap of tags: [hj.(h)] is a tag's index, [hk.(h)] the
     start of its next element.  Every column is non-empty, so every
     tag starts on the heap. *)
  let next = Array.make k 0 and hj = Array.init k Fun.id in
  let hk = Array.init k (fun j -> per_tag.(j).starts.(0)) and size = ref k in
  let rec sift h =
    let l = (2 * h) + 1 in
    if l < !size then begin
      let m = if l + 1 < !size && hk.(l + 1) < hk.(l) then l + 1 else l in
      if hk.(m) < hk.(h) then begin
        let j = hj.(h) and x = hk.(h) in
        hj.(h) <- hj.(m);
        hk.(h) <- hk.(m);
        hj.(m) <- j;
        hk.(m) <- x;
        sift m
      end
    end
  in
  for h = (k / 2) - 1 downto 0 do
    sift h
  done;
  while !size > 0 do
    let j = hj.(0) in
    let c = per_tag.(j) and i = next.(j) in
    f ~tid:tids.(j) ~start:c.starts.(i) ~stop:c.stops.(i) ~pid:c.pids.(i);
    next.(j) <- i + 1;
    if i + 1 < cols_length c then hk.(0) <- c.starts.(i + 1)
    else begin
      decr size;
      hj.(0) <- hj.(!size);
      hk.(0) <- hk.(!size)
    end;
    sift 0
  done

let container_slot t x =
  let best = ref (-1) and slot = ref 0 in
  Array.iter
    (fun c ->
      (* Back from the last start before [x]: the first element found
         holding [x] is this tag's innermost, and no element starting
         at or before the best so far can beat it. *)
      let i = ref (count_below c.starts x ~incl_eq:false - 1) in
      while !i >= 0 && c.starts.(!i) > !best do
        if c.stops.(!i) > x then begin
          best := c.starts.(!i);
          slot := c.pids.(!i);
          i := -1
        end
        else decr i
      done)
    t.columns.per_tag;
  if !best < 0 then None else Some !slot

(* Heap words of the columns, headers included: the [columns] record
   and its two arrays, then per tag one [cols] record and three
   arrays. *)
let columns_size_bytes t =
  let k = Array.length t.columns.tids in
  let words = ref (3 + (2 * (k + 1))) in
  Array.iter (fun c -> words := !words + 4 + (3 * (cols_length c + 1))) t.columns.per_tag;
  8 * !words

let make ~sid ~slot ~gen ~parent_path ~lp ~text ~columns =
  {
    sid;
    slot;
    gen;
    len = String.length text;
    lp;
    orig_len = String.length text;
    text;
    path = Array.append parent_path [| sid |];
    ctx = [||];
    children = Vec.create ();
    tombstones = Vec.create ();
    columns;
    tr = no_translator;
  }

let make_root () =
  make ~sid:0 ~slot:0 ~gen:0 ~parent_path:[||] ~lp:0 ~text:"" ~columns:no_columns

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

let sum_children_upto t x ~incl_eq =
  Vec.fold_left
    (fun acc c -> if c.lp < x || (incl_eq && c.lp = x) then acc + c.len else acc)
    0 t.children

let global_extent_span ~gp t ~start ~stop =
  let gstart = gp + (start - tombstoned_before t start) + sum_children_upto t start ~incl_eq:true in
  let gstop = gp + (stop - tombstoned_before t stop) + sum_children_upto t stop ~incl_eq:false in
  (gstart, gstop)

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

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec go n =
    if n.len <> own_len n + children_len n then
      fail "segment %d: len %d <> own %d + children %d" n.sid n.len (own_len n)
        (children_len n);
    (* Tombstones: sorted, disjoint, within the original text. *)
    let prev_stop = ref (-1) in
    Vec.iter
      (fun (a, b) ->
        if a >= b || a < 0 || b > n.orig_len then fail "segment %d: bad tombstone" n.sid;
        if a <= !prev_stop then fail "segment %d: tombstones overlap or touch" n.sid;
        prev_stop := b)
      n.tombstones;
    (* Columns: tags strictly ascending, each with a non-empty column
       of equal-length arrays. *)
    let { tids; per_tag } = n.columns in
    if Array.length per_tag <> Array.length tids then fail "segment %d: tags and columns differ" n.sid;
    Array.iteri
      (fun k c ->
        let len = cols_length c in
        if k > 0 && tids.(k - 1) >= tids.(k) then fail "segment %d: column tags not ascending" n.sid;
        if len = 0 || Array.length c.stops <> len || Array.length c.pids <> len then
          fail "segment %d: tag %d has empty or ragged columns" n.sid tids.(k))
      per_tag;
    (* Elements in document order: strictly increasing starts (which
       also holds each tag's column sorted, or the merge would step
       back), proper nesting, extents inside the original text. *)
    let stack = ref [] in
    let prev_start = ref (-1) in
    iter_elements n (fun ~tid:_ ~start ~stop ~pid:_ ->
        if start >= stop || start < 0 || stop > n.orig_len then
          fail "segment %d: element extent [%d,%d) out of range" n.sid start stop;
        if start <= !prev_start then fail "segment %d: element starts not increasing" n.sid;
        prev_start := start;
        while (match !stack with top :: _ -> top <= start | [] -> false) do
          stack := List.tl !stack
        done;
        (match !stack with
        | top :: _ when top < stop -> fail "segment %d: elements overlap" n.sid
        | _ -> ());
        stack := stop :: !stack);
    (* Children: lp-sorted, inside the parent's text (their positions are
       [Seg_map.check]'s). *)
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
        if c.lp < !prev_lp then fail "segment %d: child lps out of order" n.sid;
        if c.lp < 0 || c.lp > n.orig_len then fail "segment %d: child %d lp out of range" n.sid c.sid;
        prev_lp := c.lp;
        go c)
      n.children
  in
  go t
