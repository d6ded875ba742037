open Lxu_util
open Lxu_seglog

(* One flat block of four immediate fields per pair — no nested
   element records, so materializing N pairs allocates N+1 blocks
   rather than 3N+1 and the GC never chases intra-pair pointers. *)
type pair = { a_sid : int; a_start : int; d_sid : int; d_start : int }

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

(* One frame of the segment stack, swept once (Stack-Tree-Desc applied
   to the hooks).  Hooks reach a frame in non-decreasing order — SL_D
   is in document order and a node's children are kept in document
   order with non-decreasing [lp]s — and one segment's elements of one
   tag are nested or disjoint.  So the frame's elements open in start
   order as hooks pass their start and close for good once a hook
   reaches their stop, and [opened] always holds the elements
   containing the last hook.  Frames are reused across pushes: [push]
   resets every cursor and drops [memo]. *)
type frame = {
  mutable node : Er_node.t;
  mutable depth : int;  (* ER-tree depth: index of [node.sid] in any descendant's path *)
  mutable elems : Er_node.cols;  (* A-elements holding a child hook, by start *)
  mutable next : int;  (* first element of [elems] not yet opened *)
  mutable opened : int array;  (* the open elements' indices, outermost first *)
  mutable top : int;  (* how many of [opened] are open *)
  mutable kid : int;  (* child cursor: index in [node.children] of the last hook's child *)
  mutable memo : memo option;  (* {!query}'s translations of [elems], made on first use *)
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

(* Opens the frame's elements that start before hook [p] and closes the
   open ones that stop at or before it: afterwards
   [opened.(0 .. top - 1)] are exactly the elements containing [p],
   outermost (lowest index) first. *)
let sweep fr p =
  let e = fr.elems in
  let n = Er_node.cols_length e in
  while fr.next < n && Array.unsafe_get e.starts fr.next < p do
    let s = Array.unsafe_get e.starts fr.next in
    while fr.top > 0 && Array.unsafe_get e.stops fr.opened.(fr.top - 1) <= s do
      fr.top <- fr.top - 1
    done;
    if fr.top = Array.length fr.opened then begin
      let bigger = Array.make (max 8 (2 * fr.top)) 0 in
      Array.blit fr.opened 0 bigger 0 fr.top;
      fr.opened <- bigger
    end;
    fr.opened.(fr.top) <- fr.next;
    fr.top <- fr.top + 1;
    fr.next <- fr.next + 1
  done;
  while fr.top > 0 && Array.unsafe_get e.stops fr.opened.(fr.top - 1) <= p do
    fr.top <- fr.top - 1
  done

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

(* Chunked flat output buffer: 4 ints per pair
   [a_sid; a_start; d_sid; d_start] (an element's identity; the Child
   axis checks levels on the columns before emitting) for {!run}, 2
   ints per pair [a_gstart; d_gstart] for {!query}, written into
   fixed chunks that are never re-grown — a growable
   array would alloc+zero+copy its whole prefix on every doubling
   round, which dominates emission cost once the buffer outgrows the
   minor heap.  Chunk sizes escalate 256 → … → 65536 ints so small
   joins stay small and big ones amortize.  [full] holds
   completely-filled chunks in reverse push order (chunk sizes are
   multiples of 4 and a buffer's pushes all advance by 4 or all by 2,
   so rotation happens exactly at capacity).  A [counting] buffer only
   counts: a count needs no pair, so it allocates nothing per pair. *)
type buf = {
  counting : bool;
  mutable full : int array list;
  mutable cur : int array;
  mutable cur_len : int;
  mutable total : int;  (* ints pushed, across [full] and [cur] *)
}

let buf_create ~counting = { counting; full = []; cur = [||]; cur_len = 0; total = 0 }

let buf_grow b =
  if b.cur_len > 0 then b.full <- b.cur :: b.full;
  b.cur <- Array.make (max 256 (min 65536 (2 * Array.length b.cur))) 0;
  b.cur_len <- 0

let buf_push4 b x0 x1 x2 x3 =
  if not b.counting then begin
    if b.cur_len + 4 > Array.length b.cur then buf_grow b;
    let d = b.cur and o = b.cur_len in
    Array.unsafe_set d o x0;
    Array.unsafe_set d (o + 1) x1;
    Array.unsafe_set d (o + 2) x2;
    Array.unsafe_set d (o + 3) x3;
    b.cur_len <- o + 4
  end;
  b.total <- b.total + 4

let buf_push2 b x0 x1 =
  if b.cur_len + 2 > Array.length b.cur then buf_grow b;
  let d = b.cur and o = b.cur_len in
  Array.unsafe_set d o x0;
  Array.unsafe_set d (o + 1) x1;
  b.cur_len <- o + 2;
  b.total <- b.total + 2

(* [n] pairs at once on a counting buffer. *)
let buf_count b n = b.total <- b.total + (4 * n)

let pair_count b = b.total / 4

(* Materializes the pair records in push order — the single conversion
   at the API boundary. *)
let buf_to_pairs b =
  let n = pair_count b in
  if n = 0 then [||]
  else begin
    let out = Array.make n { a_sid = 0; a_start = 0; d_sid = 0; d_start = 0 } in
    let k = ref 0 in
    let emit data len =
      let o = ref 0 in
      while !o < len do
        let p = !o in
        Array.unsafe_set out !k
          {
            a_sid = Array.unsafe_get data p;
            a_start = Array.unsafe_get data (p + 1);
            d_sid = Array.unsafe_get data (p + 2);
            d_start = Array.unsafe_get data (p + 3);
          };
        incr k;
        o := p + 4
      done
    in
    List.iter (fun c -> emit c (Array.length c)) (List.rev b.full);
    emit b.cur b.cur_len;
    out
  end

(* A {!buf_push2} buffer's pairs as two columns, in push order. *)
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

(* Stack-Tree-Desc specialized to the columnar element snapshots of one
   segment (virtual local labels), emitting index pairs through [emit].
   The ancestor stack holds plain indices into [anc] in a growable int
   array, so the merge loop allocates nothing at all.  [guard] is
   checked once per merge step, so a cancel or deadline stops a large
   in-segment join mid-scan. *)
let in_segment_join ?guard ~axis ~depth ~(anc : Er_node.cols) ~(desc : Er_node.cols) ~emit () =
  let n_a = Er_node.cols_length anc and n_d = Er_node.cols_length desc in
  if n_a > 0 && n_d > 0 then begin
    let stack = ref (Array.make (min 16 n_a) 0) in
    let top = ref 0 in
    let push ai =
      if !top = Array.length !stack then begin
        let bigger = Array.make (2 * !top) 0 in
        Array.blit !stack 0 bigger 0 !top;
        stack := bigger
      end;
      !stack.(!top) <- ai;
      incr top
    in
    let ia = ref 0 and id = ref 0 in
    while !id < n_d && (!ia < n_a || !top > 0) do
      Deadline.check_opt guard;
      let d_start = Array.unsafe_get desc.starts !id in
      let a_start = if !ia < n_a then Array.unsafe_get anc.starts !ia else max_int in
      if a_start < d_start then begin
        while
          !top > 0
          && Array.unsafe_get anc.stops (Array.unsafe_get !stack (!top - 1)) <= a_start
        do
          decr top
        done;
        push !ia;
        incr ia
      end
      else begin
        while
          !top > 0
          && Array.unsafe_get anc.stops (Array.unsafe_get !stack (!top - 1)) <= d_start
        do
          decr top
        done;
        (* Innermost (most recently pushed) ancestor first, matching
           the emission order of the list-stack original. *)
        (match axis with
        | Axis.Desc ->
          for j = !top - 1 downto 0 do
            emit (Array.unsafe_get !stack j) !id
          done
        | Axis.Child ->
          let dl = depth.(Array.unsafe_get desc.pids !id) in
          for j = !top - 1 downto 0 do
            let ai = Array.unsafe_get !stack j in
            if dl = depth.(Array.unsafe_get anc.pids ai) + 1 then emit ai !id
          done);
        incr id
      end
    done
  end

(* One unit of join generation: everything Step 3 of Figure 9 needs
   for one SL_D entry, handed out by the segment-merge pass and run at
   once, so each frame still holds the unit's share: its elements
   containing the unit's hook are [elems] at [opened.(0 .. top - 1)],
   outermost first. *)
type d_task = {
  d_node : Er_node.t;
  cross : frame list;  (* frames with an element containing the hook, top first *)
  in_seg : bool;  (* the same segment holds both tags *)
}

(* Runs one task: cross-segment emission (Proposition 3), then the
   in-segment join.  A task exists only when it emits or joins
   in-segment, so its D-elements are fetched (and counted) exactly
   once.  [guard] is checked at task entry and per cross frame.  The
   Child axis reads levels through [depth], the synopsis' slot ->
   depth table read by {!start}. *)
let exec_task ?guard ~axis ~out ~depth ~fetch_a ~fetch_d ~stats task =
  Deadline.check_opt guard;
  let d_sid = task.d_node.Er_node.sid in
  let d = fetch_d task.d_node in
  let n_d = Er_node.cols_length d in
  List.iter
    (fun fr ->
      Deadline.check_opt guard;
      let a_sid = fr.node.Er_node.sid and a = fr.elems in
      for k = 0 to fr.top - 1 do
        let i = Array.unsafe_get fr.opened k in
        let a_start = Array.unsafe_get a.starts i in
        match axis with
        | Axis.Desc ->
          if out.counting then buf_count out n_d
          else
            for j = 0 to n_d - 1 do
              buf_push4 out a_sid a_start d_sid (Array.unsafe_get d.starts j)
            done;
          stats.cross_pairs <- stats.cross_pairs + n_d
        | Axis.Child ->
          let child_level = depth.(Array.unsafe_get a.pids i) + 1 in
          for j = 0 to n_d - 1 do
            if depth.(Array.unsafe_get d.pids j) = child_level then begin
              buf_push4 out a_sid a_start d_sid (Array.unsafe_get d.starts j);
              stats.cross_pairs <- stats.cross_pairs + 1
            end
          done
      done)
    task.cross;
  if task.in_seg then begin
    let a = fetch_a task.d_node in
    in_segment_join ?guard ~axis ~depth ~anc:a ~desc:d
      ~emit:(fun ai di ->
        buf_push4 out d_sid (Array.unsafe_get a.starts ai) d_sid (Array.unsafe_get d.starts di);
        stats.in_pairs <- stats.in_pairs + 1)
      ()
  end

(* The global start of element [i] of frame [fr]'s [elems], through
   the frame's memo. *)
let frame_start map fr i =
  let m =
    match fr.memo with
    | Some m -> m
    | None ->
      let g = Array.make (Er_node.cols_length fr.elems) (-1) in
      let m = { cur = Seg_map.cursor map fr.node; g } in
      fr.memo <- Some m;
      m
  in
  let g = Array.unsafe_get m.g i in
  if g >= 0 then g
  else begin
    let g = Er_node.cursor_start m.cur (Array.unsafe_get fr.elems.starts i) in
    Array.unsafe_set m.g i g;
    g
  end

(* [exec_task] for {!query}: the same loops and stats, writing the
   pairs' global starts.  Every cursor comes from a node the merge pass
   resolved, never from a sid.  A task with cross-segment output
   translates its D column once, in order, into [dbuf] (grown as
   needed and reused by every task), and a frame's A-elements through
   the frame's memo.  An in-segment join translates only the elements
   it emits, each once: D-elements in order on their own cursor,
   A-elements memoized by index (a cursor steps back only where a
   D-element first meets a chain of nested ancestors, emitted
   innermost first). *)
let exec_query ?guard ~axis ~map ~dbuf ~out ~depth ~fetch_a ~fetch_d ~stats task =
  Deadline.check_opt guard;
  let node = task.d_node in
  let d = fetch_d node in
  let n_d = Er_node.cols_length d in
  let gd =
    if task.cross = [] then [||]
    else begin
      if Array.length !dbuf < n_d then dbuf := Array.make (max n_d (2 * Array.length !dbuf)) 0;
      let g = !dbuf and c = Seg_map.cursor map node in
      for j = 0 to n_d - 1 do
        Array.unsafe_set g j (Er_node.cursor_start c (Array.unsafe_get d.starts j))
      done;
      g
    end
  in
  List.iter
    (fun fr ->
      Deadline.check_opt guard;
      for k = 0 to fr.top - 1 do
        let i = Array.unsafe_get fr.opened k in
        match axis with
        | Axis.Desc ->
          let ga = frame_start map fr i in
          for j = 0 to n_d - 1 do
            buf_push2 out ga (Array.unsafe_get gd j)
          done;
          stats.cross_pairs <- stats.cross_pairs + n_d
        | Axis.Child ->
          let child_level = depth.(Array.unsafe_get fr.elems.pids i) + 1 in
          for j = 0 to n_d - 1 do
            if depth.(Array.unsafe_get d.pids j) = child_level then begin
              buf_push2 out (frame_start map fr i) (Array.unsafe_get gd j);
              stats.cross_pairs <- stats.cross_pairs + 1
            end
          done
      done)
    task.cross;
  if task.in_seg then begin
    let a = fetch_a node in
    let ga = Array.make (Er_node.cols_length a) (-1) and a_cur = Seg_map.cursor map node in
    let d_g =
      if task.cross <> [] then Array.unsafe_get gd
      else begin
        let d_cur = Seg_map.cursor map node and last = ref (-1) and last_g = ref 0 in
        fun j ->
          if j <> !last then begin
            last := j;
            last_g := Er_node.cursor_start d_cur (Array.unsafe_get d.starts j)
          end;
          !last_g
      end
    in
    in_segment_join ?guard ~axis ~depth ~anc:a ~desc:d
      ~emit:(fun ai di ->
        let g = Array.unsafe_get ga ai in
        let g =
          if g >= 0 then g
          else begin
            let g = Er_node.cursor_start a_cur (Array.unsafe_get a.starts ai) in
            Array.unsafe_set ga ai g;
            g
          end
        in
        buf_push2 out g (d_g di);
        stats.in_pairs <- stats.in_pairs + 1)
      ()
  end

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
   entry with output to [emit_task], which runs it before the pass
   moves on.  [sla i]/[sld i] resolve the lists' [n_a]/[n_d] entries
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
      Vec.push frames
        { node = sa; depth; elems; next = 0; opened = [||]; top = 0; kid = 0; memo = None }
    else begin
      let fr = Vec.get frames !nf in
      fr.node <- sa;
      fr.depth <- depth;
      fr.elems <- elems;
      fr.next <- 0;
      fr.top <- 0;
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
            (fr.next < Er_node.cols_length fr.elems || fr.top > 0)
            && fr.depth + 1 < Array.length path
            && path.(fr.depth) = fr.node.Er_node.sid
          then begin
            sweep fr (hook fr path);
            if fr.top > 0 then cross := fr :: !cross
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

(* What every join does first: count the run, check [guard], ready the
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

let run ?(axis = Axis.Desc) ?guard log ~anc ~desc () =
  let out = buf_create ~counting:false in
  let stats = join ?guard log ~anc ~desc (exec_task ?guard ~axis ~out) in
  (buf_to_pairs out, stats)

let count ?(axis = Axis.Desc) ?guard log ~anc ~desc () =
  let out = buf_create ~counting:true in
  ignore (join ?guard log ~anc ~desc (exec_task ?guard ~axis ~out));
  pair_count out

let query ?(axis = Axis.Desc) ?guard log ~anc ~desc () =
  let out = buf_create ~counting:false in
  let map = Update_log.seg_map log in
  let stats = join ?guard log ~anc ~desc (exec_query ?guard ~axis ~map ~dbuf:(ref [||]) ~out) in
  let ga, gd = buf_columns out in
  Run_merge.sort gd ga;
  ((ga, gd), stats)

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
    let in_seg emit =
      if task.in_seg then begin
        let a = a_cols task.d_node.Er_node.sid in
        in_segment_join ?guard ~axis:Axis.Desc ~depth ~anc:a ~desc:d ~emit:(emit a) ()
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
          let a = fr.elems in
          for k = 0 to fr.top - 1 do
            let i = Array.unsafe_get fr.opened k in
            if any_d depth.(Array.unsafe_get a.pids i) then mark_a fr.node.Er_node.sid a i
          done)
        task.cross;
      in_seg (fun a ->
          let seen = Bytes.make (Er_node.cols_length a) '\000' in
          fun ai di ->
            if (not (is_sel seen ai)) && is_sel dsel di
               && ok_at di depth.(Array.unsafe_get a.pids ai)
            then begin
              Bytes.unsafe_set seen ai '\001';
              mark_a task.d_node.Er_node.sid a ai
            end);
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
          for k = 0 to fr.top - 1 do
            let da = depth.(Array.unsafe_get fr.elems.pids (Array.unsafe_get fr.opened k)) in
            if not (List.mem da !das) then das := da :: !das
          done)
        task.cross;
      let rec any j = function [] -> false | da :: das -> ok_at j da || any j das in
      if !das <> [] then
        for j = 0 to n_d - 1 do
          if is_sel dsel j && any j !das then mark j
        done;
      in_seg (fun a ->
          let pids = a.pids in
          fun ai di ->
            if is_sel dsel di
               && (Bytes.length !hit = 0 || not (is_sel !hit di))
               && ok_at di depth.(Array.unsafe_get pids ai)
            then mark di);
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

(* Translates in emission order into two flat columns, then merges
   their sorted runs; no tuple exists until the result list is built.
   Each side keeps its own cursor (an in-segment pair has both sides in
   one segment, and interleaving them on one cursor would step back at
   every pair). *)
let global_pairs log pairs =
  let n = Array.length pairs in
  if n = 0 then []
  else begin
    let map = Update_log.seg_map log in
    let cursor sid = Seg_map.cursor map (Update_log.node_of_sid log sid) in
    let ga = Array.make n 0 and gd = Array.make n 0 in
    let p0 = pairs.(0) in
    let a_sid = ref p0.a_sid and a_cur = ref (cursor p0.a_sid) in
    let a_start = ref p0.a_start in
    let a_g = ref (Er_node.cursor_start !a_cur p0.a_start) in
    let d_sid = ref p0.d_sid and d_cur = ref (cursor p0.d_sid) in
    for i = 0 to n - 1 do
      let p = Array.unsafe_get pairs i in
      if p.a_sid <> !a_sid then begin
        a_sid := p.a_sid;
        a_cur := cursor p.a_sid;
        a_start := p.a_start;
        a_g := Er_node.cursor_start !a_cur p.a_start
      end
      else if p.a_start <> !a_start then begin
        a_start := p.a_start;
        a_g := Er_node.cursor_start !a_cur p.a_start
      end;
      if p.d_sid <> !d_sid then begin
        d_sid := p.d_sid;
        d_cur := cursor p.d_sid
      end;
      Array.unsafe_set ga i !a_g;
      Array.unsafe_set gd i (Er_node.cursor_start !d_cur p.d_start)
    done;
    Run_merge.sort gd ga;
    let acc = ref [] in
    for i = n - 1 downto 0 do
      acc := (Array.unsafe_get ga i, Array.unsafe_get gd i) :: !acc
    done;
    !acc
  end
