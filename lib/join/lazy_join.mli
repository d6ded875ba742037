(** Lazy-Join (§4.2, Figure 9): the segment-aware structural join.

    Merges the two tag-list segment lists ([SL_A], [SL_D]) by global
    position with a stack of ancestor segments.  Cross-segment joins
    use Proposition 3: an A-element joins every D-element of a
    descendant segment iff it strictly contains the local position of
    the stack segment's child on the path to that segment — so whole
    segments (and whole element sets) are skipped or bulk-emitted
    without per-element comparisons.  In-segment joins fall back to
    Stack-Tree-Desc on the segment's immutable virtual labels.

    Step 3 sweeps each stack frame once, Stack-Tree-Desc style, over
    the hooks P_T^S of the descendant segments it meets: they reach a
    frame in document order, so the frame opens its elements in start
    order as hooks pass them and closes each for good once a hook
    reaches its stop, and a descendant segment reads exactly the open
    elements — O(elements + children + output) per frame, however
    many descendant segments hang below it.  A frame reads P_T^S off a
    forward-only cursor over its node's children, not the SB-tree.
    Both Figure 9 optimizations are built in: a frame holds only the
    A-elements containing at least one child hook (one merge of the
    element starts against the children's [lp]s), and the sweep's
    close is the top-frame trim.

    Under a [Lazy_static] log the pre-query sorting cost is incurred
    here (every join calls {!Lxu_seglog.Update_log.prepare_for_query}),
    matching the paper's LS accounting.

    A join runs on the calling domain, as the paper's does: the
    segment-merge pass (which reads the ER-tree, SB-tree and tag
    lists) hands each SL_D entry with output to its in-segment join
    and cross-segment emission, which {!query} writes into one output
    buffer.

    Element sets are each segment's own immutable per-tag columns
    ({!Lxu_seglog.Er_node.cols}), and the join kernels run directly on
    those unboxed [int array]s, writing results into a flat integer
    buffer: the inner loops allocate nothing per element.  An
    element's level is its path slot's depth
    ({!Lxu_seglog.Path_synopsis.depth_table}), read from the table of
    the log version being joined.

    {!query} is the one join that emits pairs: its sink writes each
    pair's global (anc, desc) starts, 2 ints, through cursors over the
    segments the merge pass already resolved, so no pair record is
    built and no segment is looked up again by sid.  {!count} runs the
    same pass and loops but only counts, and {!semi} marks survivors
    instead of emitting.  {!run} and {!global_pairs} are shims over
    {!query}, kept only for [perfbench/perfbench.ml]. *)

type stats = {
  mutable a_segments : int;  (** SL_A entries consumed *)
  mutable d_segments : int;  (** SL_D entries consumed *)
  mutable segments_pushed : int;
  mutable segments_skipped : int;
      (** SL_A segments discarded without element access *)
  mutable in_segment_joins : int;  (** segment pairs joined in-segment *)
  mutable cross_pairs : int;
  mutable in_pairs : int;
  mutable elements_fetched : int;  (** column entries read *)
}

val query :
  ?axis:Lxu_util.Axis.t ->
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  (int array * int array) * stats
(** [query log ~anc ~desc ()] evaluates the path expression
    [anc//desc] (or [anc/desc] with [~axis:Child]) and returns its
    pairs translated to global positions: the columns [(ga, gd)] hold
    one pair per row, [(ga.(i), gd.(i))] = [(anc_gstart, desc_gstart)],
    rows sorted by [(desc, anc)].  The merge pass resolves each
    tag-list entry it reaches through the SB-tree once.  The pair count
    is [stats.cross_pairs + stats.in_pairs].

    The sink translates as it emits, through
    {!Lxu_seglog.Seg_map.cursor}s over the segments the merge pass has
    already resolved: a task with cross-segment output translates its D
    column once, a pushed frame translates each of its A-elements once
    however many descendant segments it joins, and an in-segment join
    translates only the elements it emits.  The columns come out in the
    few sorted runs of emission order (grouped by descendant segment,
    innermost ancestors first), which {!Lxu_util.Run_merge.sort}
    merges.

    [guard] makes the join cooperative: the segment-merge loop, every
    SL_D entry's join, every cross frame and every in-segment merge
    step call {!Lxu_util.Deadline.check_opt}, so the join raises
    [Lxu_util.Deadline.Cancel.Cancelled] within one SL_D entry of the
    deadline expiring or the token firing.  Without [guard] the join is
    exactly the ungoverned one: identical pairs and stats, one extra
    branch per check point. *)

val count :
  ?axis:Lxu_util.Axis.t ->
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  int
(** The number of {!query}'s pairs, [stats.cross_pairs +
    stats.in_pairs]: the same merge pass and loops, but the kernel only
    adds to the stats, so a count translates, writes and allocates
    nothing per pair.  [axis] and [guard] as in {!query}. *)

val runs : unit -> int
(** Joins started in this process ({!query}, {!count} and {!semi}
    each add one) — lets tests prove that an evaluation ran
    none. *)

(** {2 Semi-joins}

    The path executor's joins keep elements, not pairs.  An element
    set of one tag is a {e selection mask} over that tag's per-segment
    columns, and a semi-join walks the same segment-merge pass and the
    same cross- and in-segment loops as {!query}, but marks survivors
    instead of writing pairs: no buffer, no pair, no ref. *)

type mask = {
  entries : Lxu_seglog.Tag_list.entry array;  (** the tag's tag-list entries, in order *)
  nodes : Lxu_seglog.Er_node.t array;  (** each entry's segment *)
  cols : Lxu_seglog.Er_node.cols array;  (** each segment's column of the tag *)
  sel : Bytes.t array;
      (** [sel.(k)] has one byte per element of [cols.(k)], non-zero
          for a member; [Bytes.empty] when the segment has none *)
}

val select :
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  tid:int ->
  bool array ->
  mask
(** [select log ~tid slots]: the elements of tag [tid] on a slot set in
    [slots] (indexed by path slot): each entry of the tag's list
    resolved once, each column scanned once, and a selection allocated
    only for a segment holding a member.  [tid < 0] (a tag that never
    occurs) is the empty mask of no segment. *)

val mask_count : mask -> int
(** The members: a popcount, no translation. *)

val semi :
  ?restrict:bool ->
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  anc:mask ->
  desc:mask ->
  ok:Bytes.t array ->
  keep:[ `Anc | `Desc ] ->
  mask
(** The semi-join of the members of [anc] (an ancestor tag's mask) and
    [desc] (a descendant tag's, on the same log): a pair [(a, d)] with
    [a] a proper ancestor of [d] matches when [ok.(pid_d)] has a
    non-zero byte at [a]'s depth, where [pid_d] is [d]'s path slot —
    so one lookup decides whether [d]'s path spells what must lie
    between them (for one [Child] step: exactly the next depth).  The
    result is [anc]'s members with a match ([`Anc], a predicate) or
    [desc]'s ([`Desc], a step down), a subset of that side's mask.

    [restrict] (default on) walks only the segments holding a member
    on each side; off, every segment of both tags (the unrestricted
    reference).  [guard] as in {!query}. *)

(** {2 perfbench shims}

    [perfbench/perfbench.ml]'s traced [Query] times [run] and
    [global_pairs] as two spans and its traced [Count] takes
    [Array.length] of [run]'s result; nothing else calls them.  They go
    with the benchmark's next revision (ROADMAP item 1). *)

val run :
  ?axis:Lxu_util.Axis.t ->
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  (int * int) array * stats
(** {!query} with its two columns zipped: the same rows, order and
    stats. *)

val global_pairs : Lxu_seglog.Update_log.t -> (int * int) array -> (int * int) list
(** [global_pairs _ pairs] is [Array.to_list pairs]: {!run}'s pairs
    are already global. *)
