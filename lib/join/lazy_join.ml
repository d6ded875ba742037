open Lxu_util
open Lxu_seglog

type axis = Descendant | Child

(* One flat block of eight immediate fields per pair — no nested
   element records, so materializing N pairs allocates N+1 blocks
   rather than 3N+1 and the GC never chases intra-pair pointers. *)
type pair = {
  a_sid : int;
  a_start : int;
  a_stop : int;
  a_level : int;
  d_sid : int;
  d_start : int;
  d_stop : int;
  d_level : int;
}

type stats = {
  mutable a_segments : int;
  mutable d_segments : int;
  mutable segments_pushed : int;
  mutable segments_skipped : int;
  mutable in_segment_joins : int;
  mutable cross_pairs : int;
  mutable in_pairs : int;
  mutable elements_fetched : int;
  mutable segments_prefiltered : int;
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
    segments_prefiltered = 0;
  }

let add_stats into s =
  into.a_segments <- into.a_segments + s.a_segments;
  into.d_segments <- into.d_segments + s.d_segments;
  into.segments_pushed <- into.segments_pushed + s.segments_pushed;
  into.segments_skipped <- into.segments_skipped + s.segments_skipped;
  into.in_segment_joins <- into.in_segment_joins + s.in_segment_joins;
  into.cross_pairs <- into.cross_pairs + s.cross_pairs;
  into.in_pairs <- into.in_pairs + s.in_pairs;
  into.elements_fetched <- into.elements_fetched + s.elements_fetched;
  into.segments_prefiltered <- into.segments_prefiltered + s.segments_prefiltered

type frame = {
  node : Er_node.t;
  depth : int;  (* ER-tree depth: index of [node.sid] in any descendant's path *)
  mutable elems : Er_node.cols;
      (* candidate A-elements, by start; replaced (never mutated in
         place) so join units that captured an earlier version keep it
         — and so that the segment's own columns stay pristine *)
}

let contains_seg (a : Er_node.t) (d : Er_node.t) =
  a.Er_node.gp < d.Er_node.gp && a.Er_node.gp + a.Er_node.len > d.Er_node.gp + d.Er_node.len

let seg_depth (n : Er_node.t) =
  let rec up acc = function None -> acc | Some p -> up (acc + 1) p.Er_node.parent in
  up 0 n.Er_node.parent

(* Local position, within the frame's segment, of the child segment on
   the path to the segment whose tag-list [path] is given (P_T^S of
   §4.1).  Paths are root chains, so the frame's sid sits at index
   [frame.depth] of every descendant's path — an O(1) lookup the paper
   sketches as "computed after each push and stored". *)
let p_of_frame log fr (path : int array) =
  let i = fr.depth in
  if i + 1 >= Array.length path || path.(i) <> fr.node.Er_node.sid then raise Not_found
  else (Update_log.node_of_sid log path.(i + 1)).Er_node.lp

(* Order-preserving index filter that returns the input columns
   untouched when nothing is dropped — the common case on the push
   path.  Always copies when it does drop: columns are shared with the
   segment store and with captured join units. *)
let cols_filter keep (c : Er_node.cols) =
  let n = Er_node.cols_length c in
  let kept = ref 0 in
  let mask = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    if keep i then begin
      Bytes.unsafe_set mask i '\001';
      incr kept
    end
  done;
  if !kept = n then c
  else if !kept = 0 then Er_node.empty_cols
  else begin
    let starts = Array.make !kept 0
    and stops = Array.make !kept 0
    and levels = Array.make !kept 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i = '\001' then begin
        starts.(!j) <- c.starts.(i);
        stops.(!j) <- c.stops.(i);
        levels.(!j) <- c.levels.(i);
        incr j
      end
    done;
    { Er_node.starts; stops; levels }
  end

(* Chunked flat output buffer: 8 ints per pair
   [a_sid; a_start; a_stop; a_level; d_sid; d_start; d_stop; d_level],
   written into fixed chunks that are never re-grown — a growable
   array would alloc+zero+copy its whole prefix on every doubling
   round, which dominates emission cost once the buffer outgrows the
   minor heap.  Chunk sizes escalate 256 → … → 65536 ints so small
   join units stay small and big ones amortize.  [full] holds
   completely-filled chunks in reverse push order (chunk sizes are
   multiples of 8 and pushes advance by 8, so rotation happens exactly
   at capacity). *)
type buf = {
  mutable full : int array list;
  mutable spare : int array list;
      (* chunks handed back by [buf_reset], smallest first — chunks
         larger than 256 words live on the major heap, so recycling
         them across runs is what makes repeated queries
         allocation-light *)
  mutable cur : int array;
  mutable cur_len : int;
  mutable total : int;  (* ints across [full] and [cur] *)
}

let buf_create () = { full = []; spare = []; cur = [||]; cur_len = 0; total = 0 }

(* Rewinds for reuse: every chunk the run filled becomes spare
   capacity for the next run.  [full] is reverse push order
   (largest-first), so the rebuilt spare list is smallest-first,
   matching the escalation order [buf_grow] re-consumes them in. *)
let buf_reset b =
  b.spare <- List.rev_append b.full (if Array.length b.cur > 0 then [ b.cur ] else b.spare);
  b.full <- [];
  b.cur <- [||];
  b.cur_len <- 0;
  b.total <- 0

let buf_grow b =
  if b.cur_len > 0 then b.full <- b.cur :: b.full;
  (match b.spare with
  | c :: rest ->
    b.cur <- c;
    b.spare <- rest
  | [] -> b.cur <- Array.make (max 256 (min 65536 (2 * Array.length b.cur))) 0);
  b.cur_len <- 0

let buf_push8 b x0 x1 x2 x3 x4 x5 x6 x7 =
  if b.cur_len + 8 > Array.length b.cur then buf_grow b;
  let d = b.cur and o = b.cur_len in
  Array.unsafe_set d o x0;
  Array.unsafe_set d (o + 1) x1;
  Array.unsafe_set d (o + 2) x2;
  Array.unsafe_set d (o + 3) x3;
  Array.unsafe_set d (o + 4) x4;
  Array.unsafe_set d (o + 5) x5;
  Array.unsafe_set d (o + 6) x6;
  Array.unsafe_set d (o + 7) x7;
  b.cur_len <- o + 8;
  b.total <- b.total + 8

type scratch = buf

let scratch = buf_create

(* Materializes the pair records for a sequence of buffers in order —
   the single conversion at the API boundary, shared by the sequential
   (one buffer) and pool (one buffer per join unit, unit order) paths. *)
let bufs_to_pairs bufs =
  let total = List.fold_left (fun acc b -> acc + b.total) 0 bufs in
  let n = total / 8 in
  if n = 0 then [||]
  else begin
    let out =
      Array.make n
        {
          a_sid = 0;
          a_start = 0;
          a_stop = 0;
          a_level = 0;
          d_sid = 0;
          d_start = 0;
          d_stop = 0;
          d_level = 0;
        }
    in
    let k = ref 0 in
    let emit data len =
      let o = ref 0 in
      while !o < len do
        let p = !o in
        Array.unsafe_set out !k
          {
            a_sid = Array.unsafe_get data p;
            a_start = Array.unsafe_get data (p + 1);
            a_stop = Array.unsafe_get data (p + 2);
            a_level = Array.unsafe_get data (p + 3);
            d_sid = Array.unsafe_get data (p + 4);
            d_start = Array.unsafe_get data (p + 5);
            d_stop = Array.unsafe_get data (p + 6);
            d_level = Array.unsafe_get data (p + 7);
          };
        incr k;
        o := p + 8
      done
    in
    List.iter
      (fun b ->
        List.iter (fun c -> emit c (Array.length c)) (List.rev b.full);
        emit b.cur b.cur_len)
      bufs;
    out
  end

(* Stack-Tree-Desc specialized to the columnar element snapshots of one
   segment (virtual local labels), emitting index pairs through [emit].
   The ancestor stack holds plain indices into [anc] in a growable int
   array, so the merge loop allocates nothing at all.  [guard] is
   checked once per merge step, so a cancel or deadline stops a large
   in-segment join mid-scan. *)
let in_segment_join ?guard ~axis ~(anc : Er_node.cols) ~(desc : Er_node.cols) ~emit () =
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
        | Descendant ->
          for j = !top - 1 downto 0 do
            emit (Array.unsafe_get !stack j) !id
          done
        | Child ->
          let dl = Array.unsafe_get desc.levels !id in
          for j = !top - 1 downto 0 do
            let ai = Array.unsafe_get !stack j in
            if dl = Array.unsafe_get anc.levels ai + 1 then emit ai !id
          done);
        incr id
      end
    done
  end

(* One unit of join generation (everything Step 3 of Figure 9 needs
   for one SL_D entry), produced by the sequential segment-merge pass
   and executable on any domain: it captures plain integers, immutable
   columns and the SL_D segment's node, resolved through the SB-tree
   on the planning thread.  Executing it reads only that node's
   immutable columns, never the SB-tree. *)
type d_task = {
  d_node : Er_node.t;
  cross : (int * int * Er_node.cols) list;
      (* (P_T^S, ancestor sid, surviving A-elements) per stack frame, top first *)
  in_seg : bool;  (* the same segment holds both tags *)
}

(* Runs one task: cross-segment emission (Proposition 3), then the
   in-segment join.  [stats] and [out] are owned by the caller — under
   the pool each chunk gets its own, merged afterwards.  D-elements
   are fetched (and counted) on first use, preserving the lazy fetch
   accounting of the list-based implementation exactly.  [guard] is
   checked at task entry and per cross frame, so a parallel join
   observes a cancel within one pool chunk. *)
let exec_task ?guard ~axis ~fetch_a ~fetch_d ~stats ~out task =
  Deadline.check_opt guard;
  let d_sid = task.d_node.Er_node.sid in
  let d_got = ref None in
  let get_d () =
    match !d_got with
    | Some c -> c
    | None ->
      let c = fetch_d task.d_node in
      d_got := Some c;
      c
  in
  List.iter
    (fun (p, a_sid, (a : Er_node.cols)) ->
      Deadline.check_opt guard;
      let n_a = Er_node.cols_length a in
      for i = 0 to n_a - 1 do
        if Array.unsafe_get a.starts i < p && Array.unsafe_get a.stops i > p then begin
          let d = get_d () in
          let n_d = Er_node.cols_length d in
          let a_start = Array.unsafe_get a.starts i
          and a_stop = Array.unsafe_get a.stops i
          and a_level = Array.unsafe_get a.levels i in
          match axis with
          | Descendant ->
            for j = 0 to n_d - 1 do
              buf_push8 out a_sid a_start a_stop a_level d_sid
                (Array.unsafe_get d.starts j)
                (Array.unsafe_get d.stops j)
                (Array.unsafe_get d.levels j)
            done;
            stats.cross_pairs <- stats.cross_pairs + n_d
          | Child ->
            let child_level = a_level + 1 in
            for j = 0 to n_d - 1 do
              if Array.unsafe_get d.levels j = child_level then begin
                buf_push8 out a_sid a_start a_stop a_level d_sid
                  (Array.unsafe_get d.starts j)
                  (Array.unsafe_get d.stops j)
                  (Array.unsafe_get d.levels j);
                stats.cross_pairs <- stats.cross_pairs + 1
              end
            done
        end
      done)
    task.cross;
  if task.in_seg then begin
    let a = fetch_a task.d_node in
    let d = get_d () in
    in_segment_join ?guard ~axis ~anc:a ~desc:d
      ~emit:(fun ai di ->
        buf_push8 out d_sid
          (Array.unsafe_get a.starts ai)
          (Array.unsafe_get a.stops ai)
          (Array.unsafe_get a.levels ai)
          d_sid
          (Array.unsafe_get d.starts di)
          (Array.unsafe_get d.stops di)
          (Array.unsafe_get d.levels di);
        stats.in_pairs <- stats.in_pairs + 1)
      ()
  end

(* The segment-merge pass of Figure 9 (steps 1-3): walks SL_A and SL_D
   by global position with the segment stack and hands every surviving
   SL_D entry to [emit_task] as a self-contained work unit.  All
   ER-tree, SB-tree and tag-list access happens here, on the calling
   thread; the tasks only read segment columns. *)
let plan ?guard ~push_filter ~trim_top ~stats ~fetch_a ~emit_task log ~sla ~sld () =
  let stack = ref [] in
  let ia = ref 0 and id = ref 0 in
  while !id < Array.length sld && (!ia < Array.length sla || !stack <> []) do
    Deadline.check_opt guard;
    let sd_entry = sld.(!id) in
    let sd_node = Update_log.node_of_sid log sd_entry.Tag_list.sid in
    match !stack with
    | top :: rest when sd_node.Er_node.gp > top.node.Er_node.gp + top.node.Er_node.len ->
      (* Step 1: the top segment cannot contain sd nor any later
         segment of SL_D. *)
      stack := rest
    | _ ->
      let sa_node =
        if !ia < Array.length sla then
          Some (Update_log.node_of_sid log sla.(!ia).Tag_list.sid)
        else None
      in
      (match sa_node with
      | Some sa when sa.Er_node.gp < sd_node.Er_node.gp ->
        (* Step 2: push sa if it contains sd, else skip it forever
           (segments nest as a tree, so not containing means
           disjoint from everything at or after sd). *)
        stats.a_segments <- stats.a_segments + 1;
        if contains_seg sa sd_node then begin
          let base : Er_node.cols = fetch_a sa in
          (* Optimization (i): keep only A-elements that contain at
             least one child-segment position.  Children are kept in
             document order, so the smallest hook position above
             [start] — found by binary search — decides containment
             without scanning the whole child list per element. *)
          let elems =
            if not push_filter then base
            else begin
              let kids = sa.Er_node.children in
              let nk = Vec.length kids in
              if nk = 0 then Er_node.empty_cols
              else
                cols_filter
                  (fun i ->
                    let s = base.starts.(i) in
                    let j =
                      Vec.lower_bound kids ~compare:(fun (c : Er_node.t) ->
                          if c.Er_node.lp <= s then -1 else 1)
                    in
                    j < nk && (Vec.get kids j).Er_node.lp < base.stops.(i))
                  base
            end
          in
          (* Optimization (ii): drop from the current top the
             elements that end at or before the position of sa —
             they cannot contain sa or any later segment. *)
          (match !stack with
          | top :: _ when trim_top -> begin
            match p_of_frame log top (Er_node.path sa) with
            | p ->
              let e = top.elems in
              top.elems <- cols_filter (fun i -> e.Er_node.stops.(i) > p) e
            | exception Not_found -> ()
          end
          | _ -> ());
          stack := { node = sa; depth = seg_depth sa; elems } :: !stack;
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
           direct parent segment. *)
        let cross =
          List.filter_map
            (fun fr ->
              if Er_node.cols_length fr.elems = 0 then None
              else
                match p_of_frame log fr sd_entry.Tag_list.path with
                | p -> Some (p, fr.node.Er_node.sid, fr.elems)
                | exception Not_found -> None)
            !stack
        in
        let in_seg =
          match sa_node with
          | Some sa when sa.Er_node.sid = sd_node.Er_node.sid -> true
          | _ -> false
        in
        if in_seg then stats.in_segment_joins <- stats.in_segment_joins + 1;
        if cross <> [] || in_seg then
          emit_task { d_node = sd_node; cross; in_seg };
        stats.d_segments <- stats.d_segments + 1;
        incr id)
  done

let run ?(axis = Descendant) ?(push_filter = true) ?(trim_top = true) ?a_filter ?d_filter
    ?pool ?guard ?scratch log ~anc ~desc () =
  let stats = zero_stats () in
  Deadline.check_opt guard;
  Update_log.prepare_for_query log;
  let reg = Update_log.registry log in
  match (Tag_registry.find reg anc, Tag_registry.find reg desc) with
  | None, _ | _, None -> ([||], stats)
  | Some tid_a, Some tid_d ->
    (* Planner-supplied prefilters (selective Proposition 3): entries
       dropped here are skipped before any ER-tree or column
       access.  An A-side drop removes exactly the pairs whose ancestor
       lives in that segment (in-segment pairs included — the in-seg
       trigger fires off the current SL_A entry); a D-side drop removes
       exactly the pairs whose descendant lives there. *)
    let prefilter f arr =
      match f with
      | None -> arr
      | Some keep ->
        let out = Array.copy arr in
        let kept = ref 0 in
        Array.iter
          (fun e ->
            if keep e then begin
              out.(!kept) <- e;
              incr kept
            end)
          arr;
        stats.segments_prefiltered <- stats.segments_prefiltered + Array.length arr - !kept;
        Array.sub out 0 !kept
    in
    let sla = prefilter a_filter (Update_log.segments_for_tag log ~tag:anc) in
    let sld = prefilter d_filter (Update_log.segments_for_tag log ~tag:desc) in
    (* Columnar elements of one tag in one resolved segment — its own
       immutable columns, shared by every emitted pair.  [into]
       receives the fetch count — the per-chunk stats record under the
       pool. *)
    let fetch tid into node =
      let c = Er_node.cols node ~tid in
      into.elements_fetched <- into.elements_fetched + Er_node.cols_length c;
      c
    in
    let parallel =
      match pool with
      | Some p when Domain_pool.size p > 1 && Array.length sld > 1 -> Some p
      | _ -> None
    in
    (match parallel with
    | None ->
      (* Sequential: execute each join unit as the merge produces it.
         With [?scratch] the output chunks of the previous run are
         recycled, so a warm repeated query allocates no fresh buffer
         storage. *)
      let out =
        match scratch with
        | Some b ->
          buf_reset b;
          b
        | None -> buf_create ()
      in
      plan ?guard ~push_filter ~trim_top ~stats ~fetch_a:(fetch tid_a stats)
        ~emit_task:
          (exec_task ?guard ~axis ~fetch_a:(fetch tid_a stats)
             ~fetch_d:(fetch tid_d stats) ~stats ~out)
        log ~sla ~sld ();
      (bufs_to_pairs [ out ], stats)
    | Some p ->
      (* Parallel: the merge pass collects the join units, the pool
         executes them with per-task output buffers and stats, and the
         merge below re-reads both in task order — so pairs come out
         byte-identical to the sequential path and stats totals are
         exact, not approximate.  Each task re-checks [guard], so a
         cancel aborts the pool run within one chunk. *)
      let tasks = Vec.create () in
      plan ?guard ~push_filter ~trim_top ~stats ~fetch_a:(fetch tid_a stats)
        ~emit_task:(Vec.push tasks) log ~sla ~sld ();
      let tasks = Vec.to_array tasks in
      let results =
        Domain_pool.map p (Array.length tasks) (fun i ->
            let lstats = zero_stats () in
            let out = buf_create () in
            exec_task ?guard ~axis ~fetch_a:(fetch tid_a lstats)
              ~fetch_d:(fetch tid_d lstats) ~stats:lstats ~out tasks.(i);
            (out, lstats))
      in
      Array.iter (fun (_, lstats) -> add_stats stats lstats) results;
      (bufs_to_pairs (Array.to_list (Array.map fst results)), stats))

(* Each distinct segment is resolved and its translator built once per
   call; the global starts go into flat arrays and an index permutation
   is sorted by (desc, anc) with int comparisons only, so no tuple
   exists until the result list is built. *)
let global_pairs log pairs =
  let n = Array.length pairs in
  let tr = Update_log.translators log in
  let ga = Array.make n 0 and gd = Array.make n 0 in
  Array.iteri
    (fun i p ->
      ga.(i) <- Er_node.global_start (tr p.a_sid) p.a_start;
      gd.(i) <- Er_node.global_start (tr p.d_sid) p.d_start)
    pairs;
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Int.compare (Array.unsafe_get gd i) (Array.unsafe_get gd j) in
      if c <> 0 then c else Int.compare (Array.unsafe_get ga i) (Array.unsafe_get ga j))
    order;
  let acc = ref [] in
  for k = n - 1 downto 0 do
    let i = order.(k) in
    acc := (ga.(i), gd.(i)) :: !acc
  done;
  !acc
