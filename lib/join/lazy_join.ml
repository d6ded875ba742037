open Lxu_util
open Lxu_seglog

type stats = {
  mutable a_segments : int;
  mutable d_segments : int;
  mutable segments_pushed : int;
  mutable segments_skipped : int;
  mutable in_segment_joins : int;
  mutable cross_pairs : int;
  mutable in_pairs : int;
  mutable elements_fetched : int;
}

let zero_stats () =
  {
    a_segments = 0;
    d_segments = 0;
    segments_pushed = 0;
    segments_skipped = 0;
    in_segment_joins = 0;
    cross_pairs = 0;
    in_pairs = 0;
    elements_fetched = 0;
  }

(* The elements of one column open at a moving local position,
   Stack-Tree-Desc style.  Positions arrive in non-decreasing order and
   one segment's elements of one tag are nested or disjoint, so an
   element opens once a position passes its start and closes for good
   once a position reaches its stop, and [opened.(0 .. top - 1)] always
   holds the elements containing the last position, outermost (lowest
   index) first.  A frame sweeps its A-elements over the hooks below
   it; an in-segment join sweeps the segment's A column over its
   D-elements' starts. *)
type opens = {
  mutable elems : Er_node.cols;
  mutable next : int;  (* first element of [elems] not yet opened *)
  mutable opened : int array;  (* the open elements' indices, outermost first *)
  mutable top : int;  (* how many of [opened] are open *)
}

let opens elems = { elems; next = 0; opened = [||]; top = 0 }

(* Opens the elements that start before [p] and closes the open ones
   that stop at or before it: afterwards [opened.(0 .. top - 1)] are
   exactly the elements containing [p], outermost first.  Sweeping to
   the same [p] again changes nothing. *)
let[@inline] sweep o p =
  let e = o.elems in
  let starts = e.starts and stops = e.stops in
  let n = Array.length starts in
  let next = ref o.next and top = ref o.top and opened = ref o.opened in
  while !next < n && Array.unsafe_get starts !next < p do
    let s = Array.unsafe_get starts !next in
    while !top > 0 && Array.unsafe_get stops (Array.unsafe_get !opened (!top - 1)) <= s do
      decr top
    done;
    if !top = Array.length !opened then begin
      let bigger = Array.make (max 8 (2 * !top)) 0 in
      Array.blit !opened 0 bigger 0 !top;
      opened := bigger;
      o.opened <- bigger
    end;
    Array.unsafe_set !opened !top !next;
    incr top;
    incr next
  done;
  while !top > 0 && Array.unsafe_get stops (Array.unsafe_get !opened (!top - 1)) <= p do
    decr top
  done;
  o.next <- !next;
  o.top <- !top

(* One frame of the segment stack, its A-elements holding a child hook
   swept once over the hooks of the descendant segments below it.
   Hooks reach a frame in non-decreasing order — SL_D is in document
   order and a node's children are kept in document order with
   non-decreasing [lp]s.  Frames are reused across pushes: [push]
   resets every cursor and drops [memo]. *)
type frame = {
  mutable node : Er_node.t;
  mutable depth : int;  (* ER-tree depth: index of [node.sid] in any descendant's path *)
  o : opens;  (* A-elements holding a child hook, by start *)
  mutable kid : int;  (* child cursor: index in [node.children] of the last hook's child *)
  mutable memo : memo option;  (* {!query}'s translations of [o.elems], made on first use *)
}

(* A pushed frame's A-elements' global starts, translated once each on
   their first emission ([-1] before), on one cursor over the frame's
   segment.  Elements open in start order, so the cursor only moves
   forward. *)
and memo = { cur : Er_node.cursor; g : int array }

(* Whether segment [a] is a proper ancestor of segment [d]: [a]'s sid
   sits on [d]'s root path.  Decided on the ER-tree, not by comparing
   global extents: a parent whose own text before (or after) a child
   is all tombstoned starts (or ends) where the child does, so strict
   extent containment would miss it. *)
let is_ancestor (a : Er_node.t) (d : Er_node.t) =
  let i = Array.length a.Er_node.path - 1 in
  i < Array.length d.Er_node.path - 1 && d.Er_node.path.(i) = a.Er_node.sid

(* Local position, within the frame's segment, of the child segment on
   the descendant root path [path] (P_T^S of §4.1), read off the
   frame's child cursor.  The frame's sid sits at index [fr.depth] of
   every descendant's path and the child's at the next; hooks arrive
   in document order, so the cursor only moves forward and a frame
   walks its children once however many descendant segments it
   meets. *)
let hook fr (path : int array) =
  let kids = fr.node.Er_node.children in
  let sid = path.(fr.depth + 1) and n = Vec.length kids in
  let k = ref fr.kid in
  while !k < n && (Vec.get kids !k).Er_node.sid <> sid do
    incr k
  done;
  if !k = n then invalid_arg "Lazy_join: SL_D out of document order";
  fr.kid <- !k;
  (Vec.get kids !k).Er_node.lp

(* Figure 9's optimization (i): the elements of [c] that strictly
   contain at least one child's hook.  Starts and the children's lps
   both ascend, so one merge decides it: the first child past an
   element's start is the only one to test against its stop. *)
let holding_hooks (c : Er_node.cols) (kids : Er_node.t Vec.t) =
  let nk = Vec.length kids in
  if nk = 0 then Er_node.empty_cols
  else begin
    let j = ref 0 in
    Er_node.cols_filter
      (fun i ->
        let s = Array.unsafe_get c.starts i in
        while !j < nk && (Vec.get kids !j).Er_node.lp <= s do
          incr j
        done;
        !j < nk && (Vec.get kids !j).Er_node.lp < Array.unsafe_get c.stops i)
      c
  end

(* Chunked flat output buffer of {!query}'s pairs, 2 ints per pair
   [a_gstart; d_gstart], written into fixed chunks that are never
   re-grown — a growable array would alloc+zero+copy its whole prefix
   on every doubling round, which dominates emission cost once the
   buffer outgrows the minor heap.  Chunk sizes escalate 256 → … →
   65536 ints so small joins stay small and big ones amortize.  [full]
   holds completely-filled chunks in reverse push order (chunk sizes
   are even, so rotation happens exactly at capacity). *)
type buf = {
  mutable full : int array list;
  mutable cur : int array;
  mutable cur_len : int;
  mutable total : int;  (* ints pushed, across [full] and [cur] *)
}

let buf_create () = { full = []; cur = [||]; cur_len = 0; total = 0 }

let buf_grow b =
  if b.cur_len > 0 then b.full <- b.cur :: b.full;
  b.cur <- Array.make (max 256 (min 65536 (2 * Array.length b.cur))) 0;
  b.cur_len <- 0

let buf_push2 b x0 x1 =
  if b.cur_len + 2 > Array.length b.cur then buf_grow b;
  let d = b.cur and o = b.cur_len in
  Array.unsafe_set d o x0;
  Array.unsafe_set d (o + 1) x1;
  b.cur_len <- o + 2;
  b.total <- b.total + 2

(* The buffer's pairs as two columns, in push order. *)
let buf_columns b =
  let n = b.total / 2 in
  let ga = Array.make n 0 and gd = Array.make n 0 in
  let k = ref 0 in
  let take data len =
    let o = ref 0 in
    while !o < len do
      Array.unsafe_set ga !k (Array.unsafe_get data !o);
      Array.unsafe_set gd !k (Array.unsafe_get data (!o + 1));
      incr k;
      o := !o + 2
    done
  in
  List.iter (fun c -> take c (Array.length c)) (List.rev b.full);
  take b.cur b.cur_len;
  (ga, gd)

(* Stack-Tree-Desc on one segment's columns (virtual local labels):
   sweeps [anc] over the D-elements' starts and calls [f o j] for every
   D-element [j] with an ancestor in the segment, its ancestors being
   [o.opened.(0 .. o.top - 1)] (indices into [anc]), outermost first.
   It stops once no A-element is open or left to open, and allocates
   nothing but the open stack.  [guard] is checked once per
   D-element. *)
let in_segment_join ?guard ~(anc : Er_node.cols) ~(desc : Er_node.cols) f =
  let o = opens anc and n_a = Er_node.cols_length anc and n_d = Er_node.cols_length desc in
  let j = ref 0 in
  while !j < n_d && (o.next < n_a || o.top > 0) do
    Deadline.check_opt guard;
    let p = Array.unsafe_get desc.starts !j in
    (* With nothing open, a D-element up to the next A-element's start
       has no ancestor: skip it without a sweep. *)
    if o.top > 0 || p > Array.unsafe_get anc.starts o.next then begin
      sweep o p;
      if o.top > 0 then f o !j
    end;
    incr j
  done

(* One unit of join generation: everything Step 3 of Figure 9 needs
   for one SL_D entry, handed out by the segment-merge pass, so each
   frame still holds the unit's share: its elements containing the
   unit's hook are [o.elems] at [o.opened.(0 .. o.top - 1)], outermost
   first.  Later hooks move the frames on, so a unit is read when it is
   handed out. *)
type d_task = {
  d_node : Er_node.t;
  cross : frame list;  (* frames with an element containing the hook, top first *)
  in_seg : bool;  (* the same segment holds both tags *)
}

(* Counts one task's pairs into [stats]: cross-segment emission
   (Proposition 3), then the in-segment join, writing nothing — the
   kernel of {!count}.  A task exists only when it emits or joins
   in-segment, so its D-elements are fetched (and counted) exactly
   once.  [guard] is checked at task entry and per cross frame.  The
   Child axis reads levels through [depth], the synopsis' slot ->
   depth table read by {!start}. *)
let exec_task ?guard ~axis ~depth ~fetch_a ~fetch_d ~stats task =
  Deadline.check_opt guard;
  let d = fetch_d task.d_node in
  let n_d = Er_node.cols_length d in
  List.iter
    (fun fr ->
      Deadline.check_opt guard;
      let o = fr.o in
      match axis with
      | Axis.Desc -> stats.cross_pairs <- stats.cross_pairs + (o.top * n_d)
      | Axis.Child ->
        for k = 0 to o.top - 1 do
          let i = Array.unsafe_get o.opened k in
          let child_level = depth.(Array.unsafe_get o.elems.pids i) + 1 in
          for j = 0 to n_d - 1 do
            if depth.(Array.unsafe_get d.pids j) = child_level then
              stats.cross_pairs <- stats.cross_pairs + 1
          done
        done)
    task.cross;
  if task.in_seg then begin
    let a = fetch_a task.d_node in
    in_segment_join ?guard ~anc:a ~desc:d (fun o j ->
        match axis with
        | Axis.Desc -> stats.in_pairs <- stats.in_pairs + o.top
        | Axis.Child ->
          let dl = depth.(Array.unsafe_get d.pids j) in
          for q = 0 to o.top - 1 do
            if depth.(Array.unsafe_get a.pids (Array.unsafe_get o.opened q)) + 1 = dl then
              stats.in_pairs <- stats.in_pairs + 1
          done)
  end

(* The global start of element [i] of frame [fr]'s [o.elems], through
   the frame's memo. *)
let frame_start map fr i =
  let m =
    match fr.memo with
    | Some m -> m
    | None ->
      let g = Array.make (Er_node.cols_length fr.o.elems) (-1) in
      let m = { cur = Seg_map.cursor map fr.node; g } in
      fr.memo <- Some m;
      m
  in
  let g = Array.unsafe_get m.g i in
  if g >= 0 then g
  else begin
    let g = Er_node.cursor_start m.cur (Array.unsafe_get fr.o.elems.starts i) in
    Array.unsafe_set m.g i g;
    g
  end

(* A task of {!query} being written: [exec_query] reads its cross
   ancestors off the frames when the merge pass hands it out, and
   [write] writes it D-element by D-element.  Pairs come in
   [(desc, anc)] order: D-elements in order, and per D-element its
   ancestors ascending — the cross ones ([cross]: frames bottom to top,
   each frame's open elements outermost first; one fixed list for the
   whole task, which the Child axis filters by the levels [cross_lv]),
   then the segment's own open stack [own] bottom to top.  So {!query}
   can stop a task at the gp of a D segment nested inside its segment,
   write that one, and resume.

   Every cursor comes from a node the merge pass resolved, never from a
   sid.  D-elements translate in order on [d_cur], only when they have
   a pair; a frame's A-elements through the frame's memo, and the
   segment's own A-elements memoized by index in [ga] (they open in
   start order and are written bottom to top, so [a_cur] moves forward
   too). *)
type writer = {
  d : Er_node.cols;
  d_cur : Er_node.cursor;
  cross : int array;
  cross_lv : int array;
  own : opens;
  a_cur : Er_node.cursor;
  ga : int array;
  mutable j : int;  (* the next D-element *)
  depth : int array;
  stats : stats;
}

(* The [own] of a task without an in-segment join: never swept. *)
let no_opens = opens Er_node.empty_cols

let exec_query ?guard ~axis ~map ~depth ~fetch_a ~fetch_d ~stats task =
  Deadline.check_opt guard;
  let node = task.d_node in
  let d = fetch_d node in
  let d_cur = Seg_map.cursor map node in
  let nc = List.fold_left (fun n fr -> n + fr.o.top) 0 task.cross in
  let cross = Array.make nc 0 in
  let cross_lv = match axis with Axis.Desc -> [||] | Axis.Child -> Array.make nc 0 in
  (* [task.cross] is top first: each frame fills the block below the
     one above it. *)
  let rec fill hi = function
    | [] -> ()
    | fr :: frames ->
      Deadline.check_opt guard;
      let o = fr.o in
      let lo = hi - o.top in
      for k = 0 to o.top - 1 do
        let i = Array.unsafe_get o.opened k in
        cross.(lo + k) <- frame_start map fr i;
        if axis = Axis.Child then cross_lv.(lo + k) <- depth.(Array.unsafe_get o.elems.pids i)
      done;
      fill lo frames
  in
  fill nc task.cross;
  let a = if task.in_seg then fetch_a node else Er_node.empty_cols in
  let n_a = Er_node.cols_length a in
  {
    d;
    d_cur;
    cross;
    cross_lv;
    own = (if n_a > 0 then opens a else no_opens);
    a_cur = (if n_a > 0 then Seg_map.cursor map node else d_cur);
    ga = Array.make n_a (-1);
    j = 0;
    depth;
    stats;
  }

(* The global start of the task's own A-element [ai]. *)
let own_start w ai =
  let g = Array.unsafe_get w.ga ai in
  if g >= 0 then g
  else begin
    let g = Er_node.cursor_start w.a_cur (Array.unsafe_get w.own.elems.starts ai) in
    Array.unsafe_set w.ga ai g;
    g
  end

(* Writes into [out] the pairs of [w]'s D-elements that start before
   global position [bound]; says whether [w] is done. *)
let write ?guard ~axis ~out w bound =
  let d = w.d and own = w.own and cross = w.cross and stats = w.stats and depth = w.depth in
  let a = own.elems in
  let n_d = Er_node.cols_length d and n_a = Er_node.cols_length a and nc = Array.length cross in
  let stop = ref false in
  while (not !stop) && w.j < n_d do
    Deadline.check_opt guard;
    let j = w.j in
    let p = Array.unsafe_get d.starts j in
    if own.top > 0 || (own.next < n_a && p > Array.unsafe_get a.starts own.next) then sweep own p;
    if nc = 0 && own.top = 0 then w.j <- (if own.next = n_a then n_d else j + 1)
    else begin
      let gd = Er_node.cursor_start w.d_cur p in
      if gd >= bound then stop := true
      else begin
        (match axis with
        | Axis.Desc ->
          for k = 0 to nc - 1 do
            buf_push2 out (Array.unsafe_get cross k) gd
          done;
          stats.cross_pairs <- stats.cross_pairs + nc;
          for q = 0 to own.top - 1 do
            buf_push2 out (own_start w (Array.unsafe_get own.opened q)) gd
          done;
          stats.in_pairs <- stats.in_pairs + own.top
        | Axis.Child ->
          let dl = depth.(Array.unsafe_get d.pids j) in
          for k = 0 to nc - 1 do
            if Array.unsafe_get w.cross_lv k + 1 = dl then begin
              buf_push2 out (Array.unsafe_get cross k) gd;
              stats.cross_pairs <- stats.cross_pairs + 1
            end
          done;
          for q = 0 to own.top - 1 do
            let ai = Array.unsafe_get own.opened q in
            if depth.(Array.unsafe_get a.pids ai) + 1 = dl then begin
              buf_push2 out (own_start w ai) gd;
              stats.in_pairs <- stats.in_pairs + 1
            end
          done);
        w.j <- j + 1
      end
    end
  done;
  not !stop

(* [node i] for ascending [i < n], each index resolved once, on first
   use — so the merge pass never resolves an entry it stops before.
   On a paged store every resolution is a buffer-pool B+-tree probe:
   resolving whole lists up front more than doubled paged_beyond_ram's
   [count_p50_ms]. *)
let heads n resolve =
  let at = ref (-1) and cur = ref None in
  fun i ->
    if i >= n then None
    else begin
      if i <> !at then begin
        at := i;
        cur := Some (resolve i)
      end;
      !cur
    end

(* The segment-merge pass of Figure 9 (steps 1-3): walks SL_A and SL_D
   by global position with the segment stack and hands every SL_D
   entry with output to [emit_task], which reads the frames before the
   pass moves on.  [sla i]/[sld i] resolve the lists' [n_a]/[n_d] entries
   to their segments.  All ER-tree, SB-tree and tag-list access
   happens here; the tasks only read segment columns. *)
let plan ?guard ~stats ~fetch_a ~emit_task log ~n_a ~sla ~n_d ~sld () =
  (* Whether [sa] comes before [sd] in document order.  Two segments
     share a gp only when one is the other's ancestor (the ancestor's
     own text before the child is all tombstoned), and the tag lists
     keep the ancestor first. *)
  let map = Update_log.seg_map log in
  let precedes sa sd =
    let ga = Seg_map.gp map sa and gd = Seg_map.gp map sd in
    ga < gd || (ga = gd && is_ancestor sa sd)
  in
  let a_head = heads n_a sla and d_head = heads n_d sld in
  (* The stack is [frames.(0 .. nf - 1)], top last. *)
  let frames = Vec.create () and nf = ref 0 in
  let push (sa : Er_node.t) elems =
    let depth = Array.length sa.Er_node.path - 1 in
    if !nf = Vec.length frames then
      Vec.push frames { node = sa; depth; o = opens elems; kid = 0; memo = None }
    else begin
      let fr = Vec.get frames !nf in
      fr.node <- sa;
      fr.depth <- depth;
      fr.o.elems <- elems;
      fr.o.next <- 0;
      fr.o.top <- 0;
      fr.kid <- 0;
      fr.memo <- None
    end;
    incr nf
  in
  let ia = ref 0 and id = ref 0 in
  while !id < n_d && (!ia < n_a || !nf > 0) do
    Deadline.check_opt guard;
    let sd_node = Option.get (d_head !id) in
    if
      !nf > 0
      &&
      let top = (Vec.get frames (!nf - 1)).node in
      Seg_map.gp map sd_node > Seg_map.gp map top + top.Er_node.len
    then
      (* Step 1: the top segment cannot contain sd nor any later
         segment of SL_D. *)
      decr nf
    else
      let sa_node = a_head !ia in
      match sa_node with
      | Some sa when precedes sa sd_node ->
        (* Step 2: push sa if it contains sd, else skip it forever
           (segments nest as a tree, so not containing means
           disjoint from everything at or after sd).  Only elements
           holding a child hook can ever emit (optimization (i));
           those that stop before later hooks close in the sweep
           (optimization (ii)). *)
        stats.a_segments <- stats.a_segments + 1;
        if is_ancestor sa sd_node then begin
          push sa (holding_hooks (fetch_a sa) sa.Er_node.children);
          stats.segments_pushed <- stats.segments_pushed + 1
        end
        else stats.segments_skipped <- stats.segments_skipped + 1;
        incr ia
      | _ ->
        (* Step 3: join generation for sd.  Parent-child pairs across
           segments are decided by the absolute-level check at
           execution time: with multi-rooted fragments an intermediate
           segment can contribute zero element depth, so (unlike the
           single-rooted case of §4.2) they are not confined to the
           direct parent segment.  Walking the frames bottom-up and
           consing lists them top first. *)
        let path = sd_node.Er_node.path in
        let cross = ref [] in
        for f = 0 to !nf - 1 do
          let fr = Vec.get frames f in
          if
            (fr.o.next < Er_node.cols_length fr.o.elems || fr.o.top > 0)
            && fr.depth + 1 < Array.length path
            && path.(fr.depth) = fr.node.Er_node.sid
          then begin
            sweep fr.o (hook fr path);
            if fr.o.top > 0 then cross := fr :: !cross
          end
        done;
        let in_seg =
          match sa_node with
          | Some sa when sa.Er_node.sid = sd_node.Er_node.sid -> true
          | _ -> false
        in
        if in_seg then stats.in_segment_joins <- stats.in_segment_joins + 1;
        if !cross <> [] || in_seg then emit_task { d_node = sd_node; cross = !cross; in_seg };
        stats.d_segments <- stats.d_segments + 1;
        incr id
  done

let runs_total = Atomic.make 0
let runs () = Atomic.get runs_total

(* What every join does first: count the join, check [guard], ready the
   SB-tree and the sorted tag lists, and read the synopsis' slot ->
   depth table. *)
let start ?guard log =
  Atomic.incr runs_total;
  Deadline.check_opt guard;
  Update_log.prepare_for_query log;
  Path_synopsis.depth_table (Update_log.synopsis log)

(* The whole join up to materialization: [plan] over [anc]'s and
   [desc]'s tag lists, handing every task to [exec ~depth ~fetch_a
   ~fetch_d ~stats]; returns the stats. *)
let join ?guard log ~anc ~desc exec =
  let stats = zero_stats () in
  let depth = start ?guard log in
  let reg = Update_log.registry log in
  (match (Tag_registry.find reg anc, Tag_registry.find reg desc) with
  | None, _ | _, None -> ()
  | Some tid_a, Some tid_d ->
    let sla = Update_log.segments_for_tag log ~tag:anc in
    let sld = Update_log.segments_for_tag log ~tag:desc in
    let node (l : Tag_list.entry array) i = Update_log.node_of_sid log l.(i).Tag_list.sid in
    (* Columnar elements of one tag in one resolved segment — its own
       immutable columns, shared by every emitted pair. *)
    let fetch tid node =
      let c = Er_node.cols node ~tid in
      stats.elements_fetched <- stats.elements_fetched + Er_node.cols_length c;
      c
    in
    let fetch_a = fetch tid_a in
    plan ?guard ~stats ~fetch_a
      ~emit_task:(exec ~depth ~fetch_a ~fetch_d:(fetch tid_d) ~stats)
      log ~n_a:(Array.length sla) ~sla:(node sla) ~n_d:(Array.length sld) ~sld:(node sld) ());
  stats

let count ?(axis = Axis.Desc) ?guard log ~anc ~desc () =
  let stats = join ?guard log ~anc ~desc (exec_task ?guard ~axis) in
  stats.cross_pairs + stats.in_pairs

(* Tasks come in SL_D order, so a task's D segment lies inside a
   pending task's or past it.  [pending] holds the tasks partly
   written, innermost first, each one's segment inside the next one's.
   Before a task starts, [flush] writes the pending tasks up to its gp,
   innermost first, and drops those done; the first one that stops ends
   the walk, because its next D-element lies inside its segment, past
   the gp, so the tasks further out have nothing left before it.  A
   task whose segment has no child segment cannot wait for one: it is
   written at once. *)
let query ?(axis = Axis.Desc) ?guard log ~anc ~desc () =
  let out = buf_create () in
  let map = Update_log.seg_map log in
  let rec flush bound = function
    | w :: rest when write ?guard ~axis ~out w bound -> flush bound rest
    | pending -> pending
  in
  let pending = ref [] in
  let stats =
    join ?guard log ~anc ~desc (fun ~depth ~fetch_a ~fetch_d ~stats task ->
        let w = exec_query ?guard ~axis ~map ~depth ~fetch_a ~fetch_d ~stats task in
        let node = task.d_node in
        if !pending <> [] then pending := flush (Seg_map.gp map node) !pending;
        if Vec.is_empty node.Er_node.children then ignore (write ?guard ~axis ~out w max_int)
        else pending := w :: !pending)
  in
  ignore (flush max_int !pending);
  (buf_columns out, stats)

(* perfbench shims: [query] as one array of pairs, and the list of
   them. *)
let run ?axis ?guard log ~anc ~desc () =
  let (ga, gd), stats = query ?axis ?guard log ~anc ~desc () in
  (Array.map2 (fun a d -> (a, d)) ga gd, stats)

let global_pairs _log pairs = Array.to_list pairs

(* --- semi-joins over selection masks -------------------------------- *)

type mask = {
  entries : Tag_list.entry array;
  nodes : Er_node.t array;
  cols : Er_node.cols array;
  sel : Bytes.t array;
}

let is_sel b i = Bytes.unsafe_get b i <> '\000'

(* Every entry is resolved before any column is read: one loop that
   resolved an entry and scanned its column in turn read perfbench's
   paged_beyond_ram [path_p95_ms] 22 % higher, in 8 of 8 paired runs on
   a 2-vCPU x86-64 host.  [cols] and [sel] start filled with static
   values: an [Array.map] whose first result is a fresh [Bytes] forces
   a minor collection whenever the array is allocated in the major heap
   (over 256 entries). *)
let select ?guard log ~tid (slots : bool array) =
  let entries = if tid < 0 then [||] else Tag_list.entries (Update_log.tag_list log) ~tid in
  let nodes = Array.map (fun (e : Tag_list.entry) -> Update_log.node_of_sid log e.sid) entries in
  let n = Array.length nodes in
  let cols = Array.make n Er_node.empty_cols and sel = Array.make n Bytes.empty in
  for k = 0 to n - 1 do
    Deadline.check_opt guard;
    let c = Er_node.cols nodes.(k) ~tid in
    let b = ref Bytes.empty in
    for i = 0 to Er_node.cols_length c - 1 do
      if slots.(Array.unsafe_get c.pids i) then begin
        if Bytes.length !b = 0 then b := Bytes.make (Er_node.cols_length c) '\000';
        Bytes.unsafe_set !b i '\001'
      end
    done;
    cols.(k) <- c;
    sel.(k) <- !b
  done;
  { entries; nodes; cols; sel }

let mask_count m =
  Array.fold_left
    (fun acc b ->
      let c = ref acc in
      for i = 0 to Bytes.length b - 1 do
        if is_sel b i then incr c
      done;
      !c)
    0 m.sel

(* One join unit of a semi-join: [exec_task]'s cross- and in-segment
   loops over the unit's D column [d] and its selection [dsel],
   deciding each candidate pair by [ok] instead of emitting it.  On
   the [`Anc] side every A-element with a match is handed to [mark_a]
   (its segment, the columns read and its index there; repeats
   allowed); on the [`Desc] side the result is the unit's survivor
   bytes over [d] ([Bytes.empty] for none).  [a_cols sid] are the
   members of segment [sid]. *)
let exec_semi ?guard ~keep ~depth ~(ok : Bytes.t array) ~a_cols ~(d : Er_node.cols) ~dsel ~mark_a
    task =
  Deadline.check_opt guard;
  if Bytes.length dsel = 0 then Bytes.empty
  else begin
    let n_d = Er_node.cols_length d in
    let ok_at j da =
      let row = Array.unsafe_get ok (Array.unsafe_get d.pids j) in
      da < Bytes.length row && is_sel row da
    in
    (* [f a o j] for each D-element [j] with ancestors in its own
       segment's members [a]. *)
    let in_seg f =
      if task.in_seg then begin
        let a = a_cols task.d_node.Er_node.sid in
        in_segment_join ?guard ~anc:a ~desc:d (f a)
      end
    in
    match keep with
    | `Anc ->
      (* Whether a selected D-element matches an ancestor at depth
         [da]; the frames' elements mostly share one depth. *)
      let last = ref (-1) and last_ok = ref false in
      let any_d da =
        if da <> !last then begin
          last := da;
          last_ok := false;
          let j = ref 0 in
          while (not !last_ok) && !j < n_d do
            if is_sel dsel !j && ok_at !j da then last_ok := true;
            incr j
          done
        end;
        !last_ok
      in
      List.iter
        (fun fr ->
          Deadline.check_opt guard;
          let a = fr.o.elems in
          for k = 0 to fr.o.top - 1 do
            let i = Array.unsafe_get fr.o.opened k in
            if any_d depth.(Array.unsafe_get a.pids i) then mark_a fr.node.Er_node.sid a i
          done)
        task.cross;
      in_seg (fun a ->
          let seen = Bytes.make (Er_node.cols_length a) '\000' in
          fun o j ->
            if is_sel dsel j then
            for q = 0 to o.top - 1 do
              let ai = Array.unsafe_get o.opened q in
              if (not (is_sel seen ai)) && ok_at j depth.(Array.unsafe_get a.pids ai) then begin
                Bytes.unsafe_set seen ai '\001';
                mark_a task.d_node.Er_node.sid a ai
              end
            done);
      Bytes.empty
    | `Desc ->
      let hit = ref Bytes.empty in
      let mark j =
        if Bytes.length !hit = 0 then hit := Bytes.make n_d '\000';
        Bytes.unsafe_set !hit j '\001'
      in
      (* Cross-segment, a D-element's match depends only on the depths
         of the A-elements containing the hook. *)
      let das = ref [] in
      List.iter
        (fun fr ->
          let o = fr.o in
          for k = 0 to o.top - 1 do
            let da = depth.(Array.unsafe_get o.elems.pids (Array.unsafe_get o.opened k)) in
            if not (List.mem da !das) then das := da :: !das
          done)
        task.cross;
      let rec any j = function [] -> false | da :: das -> ok_at j da || any j das in
      if !das <> [] then
        for j = 0 to n_d - 1 do
          if is_sel dsel j && any j !das then mark j
        done;
      in_seg (fun a o j ->
          if is_sel dsel j && (Bytes.length !hit = 0 || not (is_sel !hit j)) then begin
            let q = ref 0 in
            while !q < o.top && not (ok_at j depth.(Array.unsafe_get a.pids o.opened.(!q))) do
              incr q
            done;
            if !q < o.top then mark j
          end);
      !hit
  end

(* The index in [c] of element [i] of [sub], a subset of [c]'s
   elements: [i] itself when [sub] is [c], else found by its start. *)
let index_in (c : Er_node.cols) (sub : Er_node.cols) i =
  if sub == c then i
  else begin
    let start = sub.starts.(i) in
    let lo = ref 0 and hi = ref (Er_node.cols_length c) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get c.starts mid < start then lo := mid + 1 else hi := mid
    done;
    !lo
  end

module Int_tbl = Hashtbl.Make (Int)

let semi ?(restrict = true) ?guard log ~anc ~desc ~ok ~keep =
  let depth = start ?guard log in
  (* The mask positions the merge pass walks (restricted: only the
     segments holding a member), and each one's position by sid. *)
  let walked m =
    let ks = Vec.create () in
    Array.iteri (fun k b -> if (not restrict) || Bytes.length b > 0 then Vec.push ks k) m.sel;
    let ks = Vec.to_array ks in
    let pos = Int_tbl.create (Array.length ks) in
    Array.iter (fun k -> Int_tbl.replace pos m.entries.(k).Tag_list.sid k) ks;
    (ks, Int_tbl.find pos)
  in
  let ka, a_k = walked anc and kd, d_k = walked desc in
  (* Each walked A segment's members as columns, the segment's own
     when all of it is selected. *)
  let a_cols = Int_tbl.create (Array.length ka) in
  Array.iter
    (fun k ->
      let b = anc.sel.(k) in
      Int_tbl.replace a_cols anc.entries.(k).Tag_list.sid
        (if Bytes.length b = 0 then Er_node.empty_cols
         else if not (Bytes.contains b '\000') then anc.cols.(k)
         else Er_node.cols_filter (is_sel b) anc.cols.(k)))
    ka;
  let a_cols sid = Int_tbl.find a_cols sid in
  let out = Array.make (Array.length (match keep with `Anc -> anc | `Desc -> desc).sel) Bytes.empty in
  (* [set k i] marks element [i] of A position [k]'s own column. *)
  let set k i =
    if Bytes.length out.(k) = 0 then
      out.(k) <- Bytes.make (Er_node.cols_length anc.cols.(k)) '\000';
    Bytes.unsafe_set out.(k) i '\001'
  in
  (* Tasks hand over the columns they read, resolved by [index_in]. *)
  let mark_a sid sub i =
    let k = a_k sid in
    set k (index_in anc.cols.(k) sub i)
  in
  let exec task =
    let k = d_k task.d_node.Er_node.sid in
    let hit =
      exec_semi ?guard ~keep ~depth ~ok ~a_cols ~d:desc.cols.(k) ~dsel:desc.sel.(k) ~mark_a task
    in
    if Bytes.length hit > 0 then out.(k) <- hit
  in
  (* [select] resolved every entry: the pass reads [nodes], never the
     SB-tree. *)
  plan ?guard ~stats:(zero_stats ())
    ~fetch_a:(fun node -> a_cols node.Er_node.sid)
    ~emit_task:exec log ~n_a:(Array.length ka)
    ~sla:(fun i -> anc.nodes.(ka.(i)))
    ~n_d:(Array.length kd)
    ~sld:(fun i -> desc.nodes.(kd.(i)))
    ();
  { (match keep with `Anc -> anc | `Desc -> desc) with sel = out }
