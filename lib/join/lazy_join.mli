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
    buffer: the inner loops allocate nothing per element.  An
    element's level is its path slot's depth
    ({!Lxu_seglog.Path_synopsis.depth_table}), read from the table of
    the log version being joined, captured on the calling thread.  [pair]
    records are built once at the API boundary.  Every unit carries
    its segment node, resolved during the (sequential) merge pass, so
    worker domains read only immutable columns and never the
    SB-tree. *)

type axis = Descendant | Child

type pair = { a_sid : int; a_start : int; d_sid : int; d_start : int }
(** One ancestor/descendant result: each side is an element's identity,
    its segment and virtual start.  A single flat block of immediate fields
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

val run :
  ?axis:axis ->
  ?push_filter:bool ->
  ?trim_top:bool ->
  ?a_filter:(Lxu_seglog.Tag_list.entry -> bool) ->
  ?d_filter:(Lxu_seglog.Tag_list.entry -> bool) ->
  ?pool:Lxu_util.Domain_pool.t ->
  ?guard:Lxu_util.Deadline.guard ->
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
    entries from [SL_A]/[SL_D] before the merge pass — selective
    Proposition 3, which the path executor's restricted joins use.  A dropped entry is never resolved to an
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

    [guard] makes the join cooperative: the segment-merge loop, every
    join unit, and every in-segment merge step call
    {!Lxu_util.Deadline.check}, so the run raises
    [Lxu_util.Deadline.Cancel.Cancelled] within one unit of the
    deadline expiring or the token firing — under a pool, within one
    chunk.  Without [guard] the run is exactly the ungoverned join:
    identical pairs and stats, one extra branch per check point. *)

val ref_of : sid:int -> start:int -> int
(** An element ref: segment [sid] and virtual start [start] packed in
    one int, [sid] in the high bits — refs order like the pairs
    [(sid, start)].
    @raise Invalid_argument unless [0 <= start < 2{^32}] and
    [0 <= sid < 2{^30}]. *)

val ref_sid : int -> int
(** The segment of a ref. *)

val run_refs :
  ?axis:axis ->
  ?push_filter:bool ->
  ?trim_top:bool ->
  ?a_filter:(Lxu_seglog.Tag_list.entry -> bool) ->
  ?d_filter:(Lxu_seglog.Tag_list.entry -> bool) ->
  ?pool:Lxu_util.Domain_pool.t ->
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  int array * int array * stats
(** {!run}'s pairs as two columns of refs ({!ref_of}), in the same
    order: pair [i] is [(anc.(i), desc.(i))].  No pair record is
    built — the path executor's input, which only needs element
    identities. *)

val runs : unit -> int
(** Joins started in this process ({!run}, {!run_refs} and {!count}
    each add one) — lets tests prove that an evaluation ran none. *)

val count :
  ?axis:axis ->
  ?pool:Lxu_util.Domain_pool.t ->
  ?guard:Lxu_util.Deadline.guard ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  int
(** [Array.length (fst (run log ~anc ~desc ()))] without the pairs:
    the join runs as {!run} does, but its output buffers only count
    what would be written, so a count allocates nothing per pair.
    [axis], [pool] and [guard] as in {!run}. *)

val global_pairs : Lxu_seglog.Update_log.t -> pair array -> (int * int) list
(** Translates pairs to [(anc_gstart, desc_gstart)] global positions,
    sorted by [(desc, anc)] — the canonical form for comparing against
    the classical algorithms.

    The pairs are walked in emission order with one
    {!Lxu_seglog.Er_node.cursor} per side: a side's cursor is taken
    ({!Lxu_seglog.Update_log.cursors}, over the segment's cached
    translator) only when its sid changes, and an ancestor repeated
    across consecutive pairs (a cross-segment emission) reuses its
    global start.  Within a segment the join emits labels mostly in
    local order, so a cursor mostly moves forward and a run costs
    O(labels + children + tombstones) of its segment.  The translated
    columns come out in a few sorted runs — segment nesting and
    innermost-first ancestors break the order — which
    {!Lxu_util.Run_merge.sort} merges: O(n) when the pairs are already
    sorted, O(n log runs) otherwise. *)
