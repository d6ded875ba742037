open Lxu_util
open Lxu_seglog

type axis = Descendant | Child

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

(* Whether segment [a] is a proper ancestor of segment [d]: [a]'s sid
   sits on [d]'s root path.  Decided on the ER-tree, not by comparing
   global extents: a parent whose own text before (or after) a child
   is all tombstoned starts (or ends) where the child does, so strict
   extent containment would miss it. *)
let is_ancestor (a : Er_node.t) (d : Er_node.t) =
  let i = Array.length a.Er_node.path - 1 in
  i < Array.length d.Er_node.path - 1 && d.Er_node.path.(i) = a.Er_node.sid

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
    { Er_node.starts; stops; pids }
  end

(* Chunked flat output buffer: 4 ints per pair
   [a_sid; a_start; d_sid; d_start] (an element's identity; the Child
   axis checks levels on the columns before emitting), written into
   fixed chunks that are never re-grown — a growable
   array would alloc+zero+copy its whole prefix on every doubling
   round, which dominates emission cost once the buffer outgrows the
   minor heap.  Chunk sizes escalate 256 → … → 65536 ints so small
   join units stay small and big ones amortize.  [full] holds
   completely-filled chunks in reverse push order (chunk sizes are
   multiples of 4 and pushes advance by 4, so rotation happens exactly
   at capacity).  A [counting] buffer only counts: a count needs no
   pair, so it allocates nothing per pair. *)
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

let pair_count bufs = List.fold_left (fun acc b -> acc + b.total) 0 bufs / 4

(* [f chunk len] over every filled chunk prefix, in push order. *)
let iter_chunks bufs f =
  List.iter
    (fun b ->
      List.iter (fun c -> f c (Array.length c)) (List.rev b.full);
      f b.cur b.cur_len)
    bufs

(* Materializes the pair records for a sequence of buffers in order —
   the single conversion at the API boundary, shared by the sequential
   (one buffer) and pool (one buffer per join unit, unit order) paths. *)
let bufs_to_pairs bufs =
  let n = pair_count bufs in
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
    iter_chunks bufs emit;
    out
  end

let ref_of ~sid ~start =
  if start lsr 32 <> 0 || sid lsr 30 <> 0 then invalid_arg "Lazy_join.ref_of: out of range";
  (sid lsl 32) lor start

let ref_sid r = r lsr 32

(* The pairs of a sequence of buffers as two flat columns of element
   refs, in emission order: no record, and nothing for the GC to scan
   (arrays of ints). *)
let bufs_to_refs bufs =
  let n = pair_count bufs in
  let anc = Array.make n 0 and desc = Array.make n 0 in
  let k = ref 0 in
  let emit data len =
    let o = ref 0 in
    while !o < len do
      let p = !o in
      Array.unsafe_set anc !k
        (ref_of ~sid:(Array.unsafe_get data p) ~start:(Array.unsafe_get data (p + 1)));
      Array.unsafe_set desc !k
        (ref_of ~sid:(Array.unsafe_get data (p + 2)) ~start:(Array.unsafe_get data (p + 3)));
      incr k;
      o := p + 4
    done
  in
  iter_chunks bufs emit;
  (anc, desc)

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
        | Descendant ->
          for j = !top - 1 downto 0 do
            emit (Array.unsafe_get !stack j) !id
          done
        | Child ->
          let dl = depth.(Array.unsafe_get desc.pids !id) in
          for j = !top - 1 downto 0 do
            let ai = Array.unsafe_get !stack j in
            if dl = depth.(Array.unsafe_get anc.pids ai) + 1 then emit ai !id
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
   observes a cancel within one pool chunk.  The Child axis reads
   levels through [depth], the synopsis' slot -> depth table captured
   by the caller. *)
let exec_task ?guard ~axis ~depth ~fetch_a ~fetch_d ~stats ~out task =
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
          let a_start = Array.unsafe_get a.starts i in
          match axis with
          | Descendant ->
            for j = 0 to n_d - 1 do
              buf_push4 out a_sid a_start d_sid (Array.unsafe_get d.starts j)
            done;
            stats.cross_pairs <- stats.cross_pairs + n_d
          | Child ->
            let child_level = depth.(Array.unsafe_get a.pids i) + 1 in
            for j = 0 to n_d - 1 do
              if depth.(Array.unsafe_get d.pids j) = child_level then begin
                buf_push4 out a_sid a_start d_sid (Array.unsafe_get d.starts j);
                stats.cross_pairs <- stats.cross_pairs + 1
              end
            done
        end
      done)
    task.cross;
  if task.in_seg then begin
    let a = fetch_a task.d_node in
    let d = get_d () in
    in_segment_join ?guard ~axis ~depth ~anc:a ~desc:d
      ~emit:(fun ai di ->
        buf_push4 out d_sid (Array.unsafe_get a.starts ai) d_sid (Array.unsafe_get d.starts di);
        stats.in_pairs <- stats.in_pairs + 1)
      ()
  end

(* The segment-merge pass of Figure 9 (steps 1-3): walks SL_A and SL_D
   by global position with the segment stack and hands every surviving
   SL_D entry to [emit_task] as a self-contained work unit.  All
   ER-tree, SB-tree and tag-list access happens here, on the calling
   thread; the tasks only read segment columns. *)
let plan ?guard ~push_filter ~trim_top ~stats ~fetch_a ~emit_task log ~sla ~sld () =
  (* Whether [sa] comes before [sd] in document order.  Two segments
     share a gp only when one is the other's ancestor (the ancestor's
     own text before the child is all tombstoned), and the tag lists
     keep the ancestor first. *)
  let precedes sa sd =
    let ga = Update_log.gp log sa and gd = Update_log.gp log sd in
    ga < gd || (ga = gd && is_ancestor sa sd)
  in
  let stack = ref [] in
  let ia = ref 0 and id = ref 0 in
  while !id < Array.length sld && (!ia < Array.length sla || !stack <> []) do
    Deadline.check_opt guard;
    let sd_entry = sld.(!id) in
    let sd_node = Update_log.node_of_sid log sd_entry.Tag_list.sid in
    match !stack with
    | top :: rest
      when Update_log.gp log sd_node > Update_log.gp log top.node + top.node.Er_node.len ->
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
      | Some sa when precedes sa sd_node ->
        (* Step 2: push sa if it contains sd, else skip it forever
           (segments nest as a tree, so not containing means
           disjoint from everything at or after sd). *)
        stats.a_segments <- stats.a_segments + 1;
        if is_ancestor sa sd_node then begin
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
            match p_of_frame log top sa.Er_node.path with
            | p ->
              let e = top.elems in
              top.elems <- cols_filter (fun i -> e.Er_node.stops.(i) > p) e
            | exception Not_found -> ()
          end
          | _ -> ());
          stack := { node = sa; depth = Array.length sa.Er_node.path - 1; elems } :: !stack;
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

let runs_total = Atomic.make 0
let runs () = Atomic.get runs_total

(* The whole join up to materialization: the filled output buffers, in
   emission order, and the stats.  [counting] buffers only count. *)
let fill ~counting ~axis ~push_filter ~trim_top ?a_filter ?d_filter ?pool ?guard log ~anc ~desc =
  let stats = zero_stats () in
  Atomic.incr runs_total;
  Deadline.check_opt guard;
  Update_log.prepare_for_query log;
  let reg = Update_log.registry log in
  (* Read on the calling thread: pool workers then only ever see this
     version's table, which no write touches (a write after a freeze
     registers its new paths in a copy). *)
  let depth = Path_synopsis.depth_table (Update_log.synopsis log) in
  match (Tag_registry.find reg anc, Tag_registry.find reg desc) with
  | None, _ | _, None -> ([], stats)
  | Some tid_a, Some tid_d ->
    (* Caller-supplied prefilters (selective Proposition 3): entries
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
      (* Sequential: execute each join unit as the merge produces it. *)
      let out = buf_create ~counting in
      plan ?guard ~push_filter ~trim_top ~stats ~fetch_a:(fetch tid_a stats)
        ~emit_task:
          (exec_task ?guard ~axis ~depth ~fetch_a:(fetch tid_a stats)
             ~fetch_d:(fetch tid_d stats) ~stats ~out)
        log ~sla ~sld ();
      ([ out ], stats)
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
            let out = buf_create ~counting in
            exec_task ?guard ~axis ~depth ~fetch_a:(fetch tid_a lstats)
              ~fetch_d:(fetch tid_d lstats) ~stats:lstats ~out tasks.(i);
            (out, lstats))
      in
      Array.iter (fun (_, lstats) -> add_stats stats lstats) results;
      (Array.to_list (Array.map fst results), stats))

let run ?(axis = Descendant) ?(push_filter = true) ?(trim_top = true) ?a_filter ?d_filter
    ?pool ?guard log ~anc ~desc () =
  let bufs, stats =
    fill ~counting:false ~axis ~push_filter ~trim_top ?a_filter ?d_filter ?pool ?guard log ~anc
      ~desc
  in
  (bufs_to_pairs bufs, stats)

let run_refs ?(axis = Descendant) ?(push_filter = true) ?(trim_top = true) ?a_filter ?d_filter
    ?pool ?guard log ~anc ~desc () =
  let bufs, stats =
    fill ~counting:false ~axis ~push_filter ~trim_top ?a_filter ?d_filter ?pool ?guard log ~anc
      ~desc
  in
  let a, d = bufs_to_refs bufs in
  (a, d, stats)

let count ?(axis = Descendant) ?pool ?guard log ~anc ~desc () =
  pair_count
    (fst (fill ~counting:true ~axis ~push_filter:true ~trim_top:true ?pool ?guard log ~anc ~desc))

(* Translates in emission order into two flat columns, then merges
   their sorted runs; no tuple exists until the result list is built.
   Each side keeps its own cursor (an in-segment pair has both sides in
   one segment, and interleaving them on one cursor would step back at
   every pair). *)
let global_pairs log pairs =
  let n = Array.length pairs in
  if n = 0 then []
  else begin
    let cursor = Update_log.cursors log in
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
