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

    A join runs on the calling domain, as the paper's does.  The
    segment-merge pass (which reads the ER-tree, SB-tree and tag
    lists) hands each SL_D entry with output to one task kernel,
    Step 3 of Figure 9: one gather of the entry's cross ancestors off
    the frames, one walk over its D-elements that sweeps the segment's
    own A column to each one's start (the in-segment Stack-Tree-Desc
    join), one Child-axis test and one translation memo for
    A-elements.  {!query}, {!count} and {!semi} are three short loops
    over it that differ only in what they do with a D-element's
    ancestors: write two ints each, add them up, or mark survivors.
    They run on each segment's own immutable per-tag columns
    ({!Lxu_seglog.Er_node.cols}) and allocate nothing per element; an
    element's level is its path slot's depth
    ({!Lxu_seglog.Path_synopsis.depth_table}).  {!run} and
    {!global_pairs} are shims over {!query}, kept only for
    [perfbench/perfbench.ml]. *)

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

    The loop translates as it writes, through
    {!Lxu_seglog.Seg_map.cursor}s over the segments the merge pass has
    already resolved: a task translates each D-element with a pair
    once, and one memo per pushed frame and per in-segment join
    translates each A-element once, however many D-elements or
    descendant segments it joins.  Rows are written in their
    final order, with no sort: D-elements in document order, and per
    D-element its ancestors ascending (the cross-segment ones frame by
    frame from the bottom of the stack, then the segment's own
    in-segment stack bottom to top).  A D segment nested inside an
    earlier one's range is interleaved, not merged: the earlier task
    writes up to the nested segment's gp, waits ({!pending}), and
    resumes once the nested ones are written.

    [guard] makes the join cooperative: the segment-merge loop, every
    cross frame a task gathers and every D-element its walk looks at
    call {!Lxu_util.Deadline.check_opt}, so the join raises
    [Lxu_util.Deadline.Cancel.Cancelled] within one SL_D entry, or one
    D-element of a long one, of the deadline expiring or the token
    firing.  Without [guard] the join is exactly the ungoverned one:
    identical pairs and stats, one extra branch per check point. *)

val count :
  ?axis:Lxu_util.Axis.t ->
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  int
(** The number of {!query}'s pairs, [stats.cross_pairs +
    stats.in_pairs]: the same kernel, but its loop only adds up, so a
    count translates, writes and allocates nothing per pair; under
    Desc a task's cross pairs are one product.  [axis] and [guard] as
    in {!query}. *)

val runs : unit -> int
(** Joins started in this process ({!query}, {!count} and {!semi}
    each add one) — lets tests prove that an evaluation ran
    none. *)

(** {2 Semi-joins}

    The path executor's joins keep elements, not pairs.  An element
    set of one tag is a {e selection mask} over that tag's per-segment
    columns, and a semi-join runs the same merge pass and task kernel
    as {!query}, but its loop marks survivors instead of writing
    pairs: no buffer, no pair, no ref. *)

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
    [`Desc] tests each distinct cross-ancestor depth once per
    D-element, not each pair.

    [restrict] (default on) walks only the segments holding a member
    on each side; off, every segment of both tags (the unrestricted
    reference).  [guard] as in {!query}. *)

(** {2 Result order across nested segments}

    A child segment's rows sit inside its parent's, but tag lists name
    the parent first.  {!query} and [Path_query]'s extents write rows
    in document order with no sort by keeping the segments partly
    written on one stack. *)

type pending
(** Partly written segments, innermost first, each inside the next. *)

val pending : unit -> pending

val wait : pending -> (int -> bool) -> unit
(** [wait p write] puts a segment on top: [write bound] writes its rows
    that start before global position [bound] and says whether it is
    done.  A segment with no child segment need not wait. *)

val flush : pending -> int -> unit
(** [flush p bound], before the segment at gp [bound] starts, writes
    the waiting ones up to [bound], innermost first, dropping those
    done; the first not done ends it, as the ones further out have
    nothing left before [bound].  [flush p max_int] finishes all. *)

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
