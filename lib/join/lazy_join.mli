(** Lazy-Join (§4.2, Figure 9): the segment-aware structural join.

    Merges the two tag-list segment lists ([SL_A], [SL_D]) by global
    position with a stack of ancestor segments.  Cross-segment joins
    use Proposition 3: an A-element joins every D-element of a
    descendant segment iff it strictly contains the local position of
    the stack segment's child on the path to that segment — so whole
    segments (and whole element sets) are skipped or bulk-emitted
    without per-element comparisons.  In-segment joins fall back to
    Stack-Tree-Desc on the segment's immutable virtual labels.

    Both Figure 9 optimizations are applied: only A-elements containing
    at least one child segment are pushed, and on each push the top
    frame drops elements that end before the pushed segment starts.

    Under a [Lazy_static] log the pre-query sorting cost is incurred
    here (the run calls {!Lxu_seglog.Update_log.prepare_for_query}),
    matching the paper's LS accounting.

    With [?pool], the element-level work is executed segment-parallel
    on OCaml 5 domains: the segment-merge pass (which touches the
    mutable ER-tree, SB-tree and tag lists) stays on the calling
    thread and produces one self-contained join unit per surviving
    SL_D entry; the pool then runs the units' in-segment joins and
    cross-segment emission in chunks, each with its own output buffer
    and stats record, merged back in unit order.  Pairs and stats are
    therefore identical to the sequential path — order included —
    regardless of pool size or schedule.

    Element sets are each segment's own immutable per-tag columns
    ({!Lxu_seglog.Er_node.cols}), and the join kernels run directly on
    those unboxed [int array]s, writing results into a flat integer
    buffer: the inner loops allocate nothing per element.  [pair]
    records are built once at the API boundary.  Every unit carries
    its segment node, resolved during the (sequential) merge pass, so
    worker domains read only immutable columns and never the
    SB-tree. *)

type axis = Descendant | Child

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
(** One ancestor/descendant result: each side is (segment, virtual
    extent, absolute level).  A single flat block of immediate fields
    — materializing a result array allocates one small block per pair
    and nothing the GC has to trace into. *)

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
  mutable segments_prefiltered : int;
      (** SL entries dropped by the caller's [a_filter]/[d_filter]
          before any ER-tree or element access *)
}

type scratch
(** Reusable output-buffer storage for {!run}.  The join writes
    results into fixed-size integer chunks; chunks above 256 words are
    major-heap allocations, so a caller issuing many queries can hand
    the same scratch to each sequential [run] and the chunks are
    recycled instead of re-allocated — repeated warm queries then add
    no buffer garbage.  A scratch must not be shared between
    concurrent runs; it is rewound (not read) on entry, so reuse never
    affects results. *)

val scratch : unit -> scratch
(** A fresh, empty scratch. *)

val run :
  ?axis:axis ->
  ?push_filter:bool ->
  ?trim_top:bool ->
  ?a_filter:(Lxu_seglog.Tag_list.entry -> bool) ->
  ?d_filter:(Lxu_seglog.Tag_list.entry -> bool) ->
  ?pool:Lxu_util.Domain_pool.t ->
  ?guard:Lxu_util.Deadline.guard ->
  ?scratch:scratch ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  pair array * stats
(** [run log ~anc ~desc ()] evaluates the path expression
    [anc//desc] (or [anc/desc] with [~axis:Child]), returning pairs
    ordered by descendant segment.

    [push_filter] (default on) is Figure 9's optimization (i): push
    only A-elements containing at least one child segment.  [trim_top]
    (default on) is optimization (ii): on each push, drop from the top
    frame the elements ending before the pushed segment.  Both flags
    exist for the ablation benchmark; disabling them changes cost, not
    results.

    [a_filter]/[d_filter] (default: keep everything) drop tag-list
    entries from [SL_A]/[SL_D] before the merge pass — the planner's
    selective Proposition 3.  A dropped entry is never resolved to an
    ER node and its elements are never fetched.  Soundness is the
    caller's contract: the result is exactly the unfiltered pair set
    minus pairs whose ancestor (A-side drop) or descendant (D-side
    drop) lives in a dropped segment, so filters are lossless whenever
    the caller only discards segments it can prove contribute no
    wanted pair (e.g. by synopsis evidence or membership of a
    restriction set).

    [pool] runs the per-segment join units on the given domain pool
    (see the module comment); omitted, or with a pool of size 1, the
    run is fully sequential.  Results never depend on the choice.

    [scratch] recycles output-buffer chunks across sequential runs
    (see {!type:scratch}); it is ignored when the run goes parallel,
    where each task owns a private buffer.

    [guard] makes the join cooperative: the segment-merge loop, every
    join unit, and every in-segment merge step call
    {!Lxu_util.Deadline.check}, so the run raises
    [Lxu_util.Deadline.Cancel.Cancelled] within one unit of the
    deadline expiring or the token firing — under a pool, within one
    chunk.  Without [guard] the run is exactly the ungoverned join:
    identical pairs and stats, one extra branch per check point. *)

val global_pairs : Lxu_seglog.Update_log.t -> pair array -> (int * int) list
(** Translates pairs to [(anc_gstart, desc_gstart)] global positions,
    sorted by [(desc, anc)] — the canonical form for comparing against
    the classical algorithms.  Each distinct segment is resolved once
    per call into an {!Lxu_seglog.Er_node.translator}, so a label costs
    O(log (children + tombstones)) of its segment. *)
