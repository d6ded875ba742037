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
   it; a task's walk sweeps the segment's own A column over its
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

(* The global starts of one column's elements, each translated on its
   first use ([-1] before) through one cursor over the column's
   segment: {!query} keeps one per pushed frame, however many tasks
   its A-elements join, and one per task with an in-segment join, for
   the segment's own A column.  Elements are first used in start
   order, so the cursor moves forward (under Child an own A-element
   that no D-element before joined can come late: the cursor re-seats
   by binary search). *)
type memo = { cursor : Er_node.cursor; starts : int array; g : int array }

let memo map node (c : Er_node.cols) =
  { cursor = Seg_map.cursor map node; starts = c.starts; g = Array.make (Er_node.cols_length c) (-1) }

let[@inline] global m i =
  let g = Array.unsafe_get m.g i in
  if g >= 0 then g
  else begin
    let g = Er_node.cursor_start m.cursor (Array.unsafe_get m.starts i) in
    Array.unsafe_set m.g i g;
    g
  end

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
  mutable memo : memo option;  (* made on {!query}'s first use *)
}

let frame_memo map fr =
  match fr.memo with
  | Some m -> m
  | None ->
    let m = memo map fr.node fr.o.elems in
    fr.memo <- Some m;
    m

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

(* --- Step 3 of Figure 9: one task kernel ------------------------------

   A task is one SL_D entry with output.  The merge pass hands it out
   as two shared parts: its cross ancestors, gathered off the frames
   ([cross]), and a walk over its D-elements that sweeps the segment's
   own A column to each one's start ([walk]).  {!count}, {!query} and
   {!semi} are three short loops over them that differ only in what
   they do with a D-element's ancestors: add them up, write two ints
   each, or mark survivors. *)

(* The cross ancestors (Proposition 3) of the task being handed out:
   frames bottom to top, each frame's open elements outermost first,
   so ascending.  Ancestor [k < n] is element [els.(k)] of frame
   [stack.(fs.(k))], on path slot [pids.(k)], whose depth is its own.
   One per join, refilled for every task: the merge pass moves the
   frames on once a task returns. *)
type cross = {
  stack : frame Vec.t;  (* the segment stack, bottom first *)
  mutable n : int;
  mutable fs : int array;
  mutable els : int array;
  mutable pids : int array;
}

let cross_frame x k = Vec.get x.stack (Array.unsafe_get x.fs k)

let grown a n want =
  let b = Array.make (2 * want) 0 in
  Array.blit a 0 b 0 n;
  b

let[@inline] gather x f =
  let o = (Vec.get x.stack f).o in
  let n = x.n + o.top in
  if n > Array.length x.els then begin
    x.fs <- grown x.fs x.n n;
    x.els <- grown x.els x.n n;
    x.pids <- grown x.pids x.n n
  end;
  for k = 0 to o.top - 1 do
    let i = Array.unsafe_get o.opened k in
    Array.unsafe_set x.fs (x.n + k) f;
    Array.unsafe_set x.els (x.n + k) i;
    Array.unsafe_set x.pids (x.n + k) (Array.unsafe_get o.elems.pids i)
  done;
  x.n <- n

(* A task's walk over its D-elements [d], in order, sweeping the
   segment's own A column [own.elems] (empty without an in-segment
   join) to each one's start, so that at a D-element
   [own.opened.(0 .. own.top - 1)] are its ancestors in the segment,
   outermost first.  [j] is where {!query} stopped a task, to resume it
   there. *)
type walk = { mutable d : Er_node.cols; own : opens; mutable j : int }

let walk d a = { d; own = opens a; j = 0 }

(* Starts [w] on a new task's columns, keeping its open stack's
   array. *)
let rewalk w d a =
  w.d <- d;
  w.j <- 0;
  w.own.elems <- a;
  w.own.next <- 0;
  w.own.top <- 0

(* The walk, closure-free: a kernel loops [while more d own ~all !j]
   and calls [reach d own !j] on each D-element before reading its own
   ancestors.  [more] says whether D-element [j] and the ones after it
   can have an ancestor: every one when [all] (the task has cross
   ancestors), else only while an own A-element is open or left to
   open.  [reach] sweeps [own] to D-element [j]'s start — with nothing
   open, a D-element up to the next A-element's start has no own
   ancestor and needs no sweep — and checks [guard], once per
   D-element. *)
let[@inline] more (d : Er_node.cols) o ~all j =
  j < Er_node.cols_length d && (all || o.top > 0 || o.next < Er_node.cols_length o.elems)

let[@inline] reach ?guard (d : Er_node.cols) o j =
  Deadline.check_opt guard;
  let p = Array.unsafe_get d.starts j in
  if o.top > 0 || (o.next < Er_node.cols_length o.elems && p > Array.unsafe_get o.elems.starts o.next)
  then sweep o p

(* The Child-axis test of the pair joins: [want axis depth d j] is the
   depth an ancestor must sit at to join D-element [j] of [d] — one
   above its own under Child, any ([-1]) under Desc — and [joins depth
   want pids i] whether one on path slot [pids.(i)] does.  {!semi} decides by
   its [ok] table, of which this test is one case. *)
let[@inline] want axis depth (d : Er_node.cols) j =
  match axis with Axis.Desc -> -1 | Axis.Child -> depth.(Array.unsafe_get d.pids j) - 1

let[@inline] joins depth want pids i = want < 0 || depth.(Array.unsafe_get pids i) = want

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
   entry with output to [emit node x w], its cross ancestors gathered
   in [x] and its walk [w] started on [fetch_d node] and, with an
   in-segment join, [fetch_a node].  [x] and [w] are reused: a task is
   read before [emit] returns.  [sla i]/[sld i] resolve the lists'
   [n_a]/[n_d] entries to their segments.  All ER-tree, SB-tree and
   tag-list access happens here; the tasks only read segment
   columns. *)
let plan ?guard ~stats ~fetch_a ~fetch_d ~emit log ~n_a ~sla ~n_d ~sld () =
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
  let x = { stack = frames; n = 0; fs = [||]; els = [||]; pids = [||] } in
  let w = walk Er_node.empty_cols Er_node.empty_cols in
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
           direct parent segment.  [guard] is checked per frame with
           elements containing the hook. *)
        let path = sd_node.Er_node.path in
        x.n <- 0;
        for f = 0 to !nf - 1 do
          let fr = Vec.get frames f in
          if
            (fr.o.next < Er_node.cols_length fr.o.elems || fr.o.top > 0)
            && fr.depth + 1 < Array.length path
            && path.(fr.depth) = fr.node.Er_node.sid
          then begin
            sweep fr.o (hook fr path);
            if fr.o.top > 0 then begin
              Deadline.check_opt guard;
              gather x f
            end
          end
        done;
        let in_seg =
          match sa_node with
          | Some sa when sa.Er_node.sid = sd_node.Er_node.sid -> true
          | _ -> false
        in
        if in_seg then stats.in_segment_joins <- stats.in_segment_joins + 1;
        if x.n > 0 || in_seg then begin
          rewalk w (fetch_d sd_node) (if in_seg then fetch_a sd_node else Er_node.empty_cols);
          emit sd_node x w
        end;
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

(* [plan] over [anc]'s and [desc]'s tag lists, each column read counted
   in [stats]. *)
let join ?guard log ~anc ~desc ~stats emit =
  let reg = Update_log.registry log in
  match (Tag_registry.find reg anc, Tag_registry.find reg desc) with
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
    plan ?guard ~stats ~fetch_a:(fetch tid_a) ~fetch_d:(fetch tid_d) ~emit log
      ~n_a:(Array.length sla) ~sla:(node sla) ~n_d:(Array.length sld) ~sld:(node sld) ()

(* {!count}'s loop adds a task's pairs up.  Under Desc every cross
   ancestor joins every D-element, one product per task, and the walk
   runs only while an own A-element is open or left to open. *)
let count ?(axis = Axis.Desc) ?guard log ~anc ~desc () =
  let stats = zero_stats () in
  let depth = start ?guard log in
  join ?guard log ~anc ~desc ~stats (fun _ x w ->
      let d = w.d and o = w.own in
      let j = ref 0 and cross = ref 0 and inner = ref 0 in
      (match axis with
      | Axis.Desc ->
        cross := x.n * Er_node.cols_length d;
        while more d o ~all:false !j do
          reach ?guard d o !j;
          inner := !inner + o.top;
          incr j
        done
      | Axis.Child ->
        while more d o ~all:(x.n > 0) !j do
          reach ?guard d o !j;
          let want = want axis depth d !j in
          for k = 0 to x.n - 1 do
            if joins depth want x.pids k then incr cross
          done;
          for q = 0 to o.top - 1 do
            if joins depth want o.elems.pids (Array.unsafe_get o.opened q) then
              incr inner
          done;
          incr j
        done);
      stats.cross_pairs <- stats.cross_pairs + !cross;
      stats.in_pairs <- stats.in_pairs + !inner);
  stats.cross_pairs + stats.in_pairs

(* --- result order across nested segments ----------------------------- *)

type pending = { mutable waiting : (int -> bool) list }

let pending () = { waiting = [] }

let flush p bound =
  let rec go = function w :: rest when w bound -> go rest | waiting -> waiting in
  if p.waiting <> [] then p.waiting <- go p.waiting

let wait p w = p.waiting <- w :: p.waiting

(* {!query}'s loop: writes into [out] the pairs of the task's
   D-elements from [w.j] on that start before global position [bound],
   and says whether the task is done.  Per D-element its ancestors
   come ascending: the [nc] cross ones (global starts [xg], slots
   [xp]), then the own open stack bottom to top, translated through
   [own].  A D-element translates on [d_cur], once, only when it has a
   pair. *)
let write ?guard ~axis ~depth ~stats ~out w ~nc ~xg ~xp ~d_cur ~own bound =
  let d = w.d and o = w.own in
  let a = o.elems in
  let j = ref w.j and cross = ref 0 and inner = ref 0 and stop = ref false in
  while (not !stop) && more d o ~all:(nc > 0) !j do
    reach ?guard d o !j;
    if nc > 0 || o.top > 0 then begin
      let gd = Er_node.cursor_start d_cur (Array.unsafe_get d.starts !j) in
      if gd >= bound then stop := true
      else begin
        let want = want axis depth d !j in
        for k = 0 to nc - 1 do
          if joins depth want xp k then begin
            buf_push2 out (Array.unsafe_get xg k) gd;
            incr cross
          end
        done;
        for q = 0 to o.top - 1 do
          let ai = Array.unsafe_get o.opened q in
          if joins depth want a.pids ai then begin
            buf_push2 out (global own ai) gd;
            incr inner
          end
        done
      end
    end;
    if not !stop then incr j
  done;
  w.j <- !j;
  stats.cross_pairs <- stats.cross_pairs + !cross;
  stats.in_pairs <- stats.in_pairs + !inner;
  not !stop

(* Tasks come in SL_D order, so a task's D segment lies inside a
   waiting task's or past it.  A task whose segment has no child
   segment cannot wait for one: it is written at once, straight from
   the gather and the walk; any other waits, on copies of them. *)
let query ?(axis = Axis.Desc) ?guard log ~anc ~desc () =
  let stats = zero_stats () in
  let depth = start ?guard log in
  let out = buf_create () and map = Update_log.seg_map log in
  let p = pending () and xg = ref [||] in
  join ?guard log ~anc ~desc ~stats (fun node x w ->
      let nc = x.n in
      if nc > Array.length !xg then xg := Array.make (2 * nc) 0;
      let g = !xg in
      for k = 0 to nc - 1 do
        Array.unsafe_set g k (global (frame_memo map (cross_frame x k)) (Array.unsafe_get x.els k))
      done;
      let d_cur = Seg_map.cursor map node and a = w.own.elems in
      (* Without an own A column the memo is never read: no second
         cursor. *)
      let own =
        if Er_node.cols_length a > 0 then memo map node a
        else { cursor = d_cur; starts = [||]; g = [||] }
      in
      flush p (Seg_map.gp map node);
      if Vec.is_empty node.Er_node.children then
        ignore (write ?guard ~axis ~depth ~stats ~out w ~nc ~xg:g ~xp:x.pids ~d_cur ~own max_int)
      else begin
        let w = walk w.d a and xg = Array.sub g 0 nc and xp = Array.sub x.pids 0 nc in
        wait p (write ?guard ~axis ~depth ~stats ~out w ~nc ~xg ~xp ~d_cur ~own)
      end);
  flush p max_int;
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

(* Whether D-element [j] of [d] matches an ancestor at depth [da]: the
   path-summary test of its slot's [ok] row. *)
let[@inline] ok_at ok (d : Er_node.cols) j da =
  let row = Array.unsafe_get ok (Array.unsafe_get d.pids j) in
  da < Bytes.length row && is_sel row da

(* {!semi}'s loop for [`Anc]: hands every A-element with a selected
   match to [mark_a] (its segment's sid, the column read and its index
   there; repeats allowed). *)
let semi_anc ?guard ~depth ~ok ~mark_a (node : Er_node.t) x w dsel =
  let d = w.d and o = w.own in
  let n_d = Er_node.cols_length d and n_a = Er_node.cols_length o.elems in
  (* Whether a selected D-element matches at depth [da]: a task's
     cross ancestors mostly share one depth. *)
  let last = ref (-1) and last_ok = ref false in
  for k = 0 to x.n - 1 do
    let da = depth.(Array.unsafe_get x.pids k) in
    if da <> !last then begin
      last := da;
      let j = ref 0 in
      while !j < n_d && not (is_sel dsel !j && ok_at ok d !j da) do
        incr j
      done;
      last_ok := !j < n_d
    end;
    if !last_ok then begin
      let fr = cross_frame x k in
      mark_a fr.node.Er_node.sid fr.o.elems (Array.unsafe_get x.els k)
    end
  done;
  if n_a > 0 then begin
    let seen = Bytes.make n_a '\000' and j = ref 0 in
    while more d o ~all:false !j do
      reach ?guard d o !j;
      if is_sel dsel !j then
        for q = 0 to o.top - 1 do
          let ai = Array.unsafe_get o.opened q in
          if (not (is_sel seen ai)) && ok_at ok d !j depth.(Array.unsafe_get o.elems.pids ai) then begin
            Bytes.unsafe_set seen ai '\001';
            mark_a node.Er_node.sid o.elems ai
          end
        done;
      incr j
    done
  end

(* Whether D-element [j] matches one of the depths [das], or one of
   the own open elements from [q] up. *)
let rec any_depth ok d j = function [] -> false | da :: das -> ok_at ok d j da || any_depth ok d j das

let rec any_own ~depth ok d j o q =
  q < o.top
  && (ok_at ok d j depth.(Array.unsafe_get o.elems.pids (Array.unsafe_get o.opened q))
     || any_own ~depth ok d j o (q + 1))

(* {!semi}'s loop for [`Desc]: the selected D-elements with a match,
   as bytes over [w.d] ([Bytes.empty] for none).  Across segments a
   D-element's match depends only on its cross ancestors' depths, so
   each distinct one is tested once. *)
let semi_desc ?guard ~depth ~ok x w dsel =
  let d = w.d and o = w.own in
  let das = ref [] in
  for k = 0 to x.n - 1 do
    let da = depth.(Array.unsafe_get x.pids k) in
    if not (List.mem da !das) then das := da :: !das
  done;
  let das = !das and hit = ref Bytes.empty and j = ref 0 in
  while more d o ~all:(das <> []) !j do
    reach ?guard d o !j;
    if is_sel dsel !j && (any_depth ok d !j das || any_own ~depth ok d !j o 0) then begin
      if Bytes.length !hit = 0 then hit := Bytes.make (Er_node.cols_length d) '\000';
      Bytes.unsafe_set !hit !j '\001'
    end;
    incr j
  done;
  !hit

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
  (* The D position of the task [plan] is handing out. *)
  let kd_at = ref 0 in
  let fetch_d (node : Er_node.t) =
    kd_at := d_k node.sid;
    desc.cols.(!kd_at)
  in
  let emit node x w =
    let k = !kd_at in
    let dsel = desc.sel.(k) in
    if Bytes.length dsel > 0 then
      match keep with
      | `Anc -> semi_anc ?guard ~depth ~ok ~mark_a node x w dsel
      | `Desc ->
        let hit = semi_desc ?guard ~depth ~ok x w dsel in
        if Bytes.length hit > 0 then out.(k) <- hit
  in
  (* [select] resolved every entry: the pass reads [nodes], never the
     SB-tree. *)
  plan ?guard ~stats:(zero_stats ())
    ~fetch_a:(fun node -> a_cols node.Er_node.sid)
    ~fetch_d ~emit log ~n_a:(Array.length ka)
    ~sla:(fun i -> anc.nodes.(ka.(i)))
    ~n_d:(Array.length kd)
    ~sld:(fun i -> desc.nodes.(kd.(i)))
    ();
  { (match keep with `Anc -> anc | `Desc -> desc) with sel = out }
