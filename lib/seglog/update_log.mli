(** The in-memory update log (§3): SB-tree + ER-tree + tag-list, with
    the segment insertion and removal algorithms of Figures 5 and 7.

    The super document starts empty (a dummy root).  [insert] adds a
    well-formed XML fragment at a global byte position; [remove]
    deletes a byte range that must itself be a well-formed fragment of
    the current document.  Existing element labels are never touched:
    the paper's element index is each segment's own immutable per-tag
    columns ({!Er_node.cols}), reached through the SB-tree by sid, and
    only the small per-segment bookkeeping (global positions, lengths)
    moves.

    Two maintenance disciplines mirror the paper's experiments:
    {ul
    {- [Lazy_dynamic] (LD): the SB B{^+}-tree and the tag-list are kept
       query-ready on every update.}
    {- [Lazy_static] (LS): updates only maintain the ER-tree; the
       SB-tree is rebuilt and tag lists sorted by
       {!prepare_for_query}.}}

    {b Global positions.}  A segment's gp is not on its node: the log
    keeps every live segment's gp in one {!Seg_map}, read with
    [Seg_map.gp (seg_map t) node] and turned into translation cursors
    by {!Seg_map.cursor}.  The gp shift of an insert or a remove moves
    the map's ints and touches no node.

    {b Versions.}  {!freeze} publishes a snapshot that shares every
    node, the sid map, every per-tag list and the synopsis with the
    live log, and copies only the {!Seg_map}.  It then advances the live
    log's generation: before its first in-place change after a freeze,
    the live log copies a node stamped with an older generation,
    together with its path from the root (relinking each copy in the
    sid map), and copies a per-tag list likewise.  So a publish costs
    O(segments) int copies plus what the next write touches, and no
    snapshot ever sees a change. *)

type mode = Lazy_dynamic | Lazy_static

type metrics = {
  mutable gp_shifts : int;
      (** segment global positions updated by inserts/removes *)
  mutable nodes_visited : int;  (** ER-tree nodes examined *)
  mutable segments_inserted : int;
  mutable segments_removed : int;
  mutable elements_removed : int;
}

type t

val create :
  ?mode:mode -> ?index_attributes:bool -> ?pstore:Lxu_storage_core.Page_store.t -> unit -> t
(** An empty super document. [mode] defaults to [Lazy_dynamic];
    [index_attributes] (default false) additionally indexes every
    attribute as a subelement named ["@name"] (§1: "attributes can be
    considered as subelements"); [pstore] (default: none, in memory)
    puts the SB-tree on new pages of that page store.  Element columns
    and segment texts stay on the heap either way. *)

val mode : t -> mode
val indexes_attributes : t -> bool
val doc_length : t -> int
val segment_count : t -> int
(** Live segments, dummy root excluded — an O(1) counter maintained by
    insert/remove, not a tree walk. *)

val segment_count_walk : t -> int
(** Reference implementation of {!segment_count} by full ER-tree walk;
    {!check} (and the tests) assert the two agree. *)

val element_count : t -> int
(** Live elements — an O(1) counter like {!segment_count}; {!check}
    asserts it equals the sum of every segment's column lengths. *)

val root : t -> Er_node.t

val seg_map : t -> Seg_map.t
(** This version's global positions: a frozen snapshot has its own
    copy, the live log's moves with every update. *)

val registry : t -> Tag_registry.t
val metrics : t -> metrics

val insert : t -> gp:int -> string -> int
(** [insert t ~gp text] inserts segment [text] at global position
    [gp] and returns its fresh sid.  It is the one-edit case of
    {!insert_batch} — the same body, checks and cost model — with
    refusals naming [Update_log.insert].  [gp] must be a valid split
    point of the current document (between nodes or inside text
    content — the paper's text-editing model guarantees this for real
    updates).
    @raise Invalid_argument if [gp] is out of bounds or [text] is empty.
    @raise Lxu_xml.Parser.Parse_error if [text] is not a well-formed
    fragment. *)

val insert_batch : t -> (int * string) list -> int list
(** [insert_batch t edits] applies the [(gp, text)] edits in order and
    returns their sids: the one implementation of AddNewSegment
    (Figure 5).  All fragments are parsed and labelled first, then
    the ER-tree edits are applied in order, followed by
    {e one} SB-tree batch insert and {e one} tag-list merge, whose gp
    probes go through that SB-tree (under [Lazy_dynamic];
    [Lazy_static] defers those to {!prepare_for_query} as usual).  The result is the same log as
    applying the edits one at a time.

    All-or-nothing: every edit is validated before anything is
    mutated.  [gp] bounds are checked against the document as it will
    be after the preceding edits of the batch.
    @raise Invalid_argument if any [gp] is out of bounds or any [text]
    is empty; the log is unchanged.
    @raise Lxu_xml.Parser.Parse_error if any fragment is ill-formed;
    the log is unchanged. *)

val remove : t -> gp:int -> len:int -> unit
(** [remove t ~gp ~len] deletes the byte range [gp, gp+len), updating
    segment bookkeeping per Figure 7: enclosing segments shrink,
    covered segments disappear, left/right-intersected segments lose
    their tail/head.
    @raise Invalid_argument if the range is out of bounds or would
    split an element; a rejected removal leaves the log unchanged (a
    pure pre-check walks the segments the removal will cut, with the
    same own-text range computation, before anything is mutated).
    Detection works at element granularity: a range whose endpoints
    both fall inside one element's tags or inside comments/PIs (which
    are not indexed) is the caller's responsibility, as in the paper's
    text-editing model. *)

val mark_stale : t -> unit
(** Marks the SB-tree and tag lists stale so the next
    {!prepare_for_query} rebuilds and re-sorts them — a benchmark
    helper for measuring the LS pre-query cost repeatedly. *)

val prepare_for_query : t -> unit
(** Brings an [Lazy_static] log to a query-ready state: rebuilds the
    SB B{^+}-tree from the ER-tree and sorts the tag lists.  No-op
    under [Lazy_dynamic]. *)

val node_of_sid : t -> int -> Er_node.t
(** SB-tree lookup.  Under [Lazy_static], call {!prepare_for_query}
    first. @raise Not_found on unknown or removed sids. *)

val segments_for_tag : t -> tag:string -> Tag_list.entry array
(** Tag-list lookup: segments containing the tag, in global-position
    order (the [SL] input lists of Lazy-Join). *)

val tag_list : t -> Tag_list.t

val synopsis : t -> Path_synopsis.t
(** The log's path-summary synopsis: exact per-root-to-element-path
    counts, maintained incrementally by {!insert}, {!insert_batch} and
    {!remove} (and therefore by packing, which is remove+insert).
    Frozen snapshots carry a copy-on-write clone.  The path executor's input:
    candidate slot selection reads it without forcing a dirty
    tag-list sort. *)

val synopsis_rebuilt : t -> Path_synopsis.t
(** From-scratch synopsis rebuilt off the tags and extents in the
    segments' columns, never their slots — the incremental-maintenance
    oracle ({!check} asserts the two agree, and that every node's
    recorded context chain equals the rebuilt one; exposed for the
    tests).  O(segments + elements): one ancestor-stack sweep per
    parent hands every child its context chain. *)

val materialize : t -> string
(** Reconstructs the full super-document text from the ER-tree — the
    correctness oracle: it must equal the text produced by applying
    the same edits to a plain string.  The whole-document case of
    {!materialize_range}. *)

val materialize_range : t -> gp:int -> len:int -> string
(** The [len] bytes of the document at global position [gp]
    ([String.sub (materialize t) gp len] for an in-bounds range),
    built without the rest of the document: subtrees outside the
    range are passed over by their length. *)

val global_elements : t -> tag:string -> (int * int * int) list
(** [(gstart, gstop, level)] of every live element of the tag, in
    global document order — the local→global translation feeding the
    classical-join baseline. *)

val sb_size_bytes : t -> int
val tag_list_size_bytes : t -> int

val columns_size_bytes : t -> int
(** Heap bytes of every segment's element columns. *)

val size_bytes : t -> int
(** Total update-log footprint (Figure 11a): SB/ER bookkeeping, tag
    lists and element columns — exactly the sum of the three sizes
    above. *)

val release : t -> unit
(** Frees the pages a paged SB-tree holds (no-op in memory); [t] is
    not used afterwards.  For a log that a fresh one on the same page
    store replaces, as a WAL [Rebuild] does. *)

val freeze : t -> t
(** [freeze t] returns an immutable snapshot of [t] that shares every
    node, the sid map (in memory, a persistent map), every per-tag
    list, the registry and the synopsis with [t], and copies only the
    {!Seg_map} (one int per segment slot).  It then advances [t]'s
    generation, so [t] copies whatever it changes next — a node and
    its path from the root, a per-tag list — and the snapshot keeps
    reading the state it was frozen at.  Element columns, tombstones
    and texts are replace-only and shared as they are.  A
    paged log's snapshot builds its in-memory sid map by one walk.
    The snapshot is query-ready ([prepare_for_query] is run first, so
    an LS source log is brought current) and every update entry point
    raises [Invalid_argument] on it. *)

val is_frozen : t -> bool

val check : t -> unit
(** Full invariant check across the ER-tree, the {!Seg_map}, element
    columns, SB-tree, tag-list and path synopsis: every segment's gp is
    the one its place in the tree gives ({!Seg_map.check}), no node is
    newer than its parent (a changed
    node's path was copied with it), the tag list holds exactly each
    segment's per-tag column lengths and {!element_count} their sum,
    every column's tag id is in the registry, the next sid is above
    every live sid, and every context chain, every element's slot and
    the synopsis equal a from-scratch {!synopsis_rebuilt} (test
    helper, and run by every {!load}).  It changes nothing: an LS
    log's pending tag-list runs stay pending.
    @raise Failure on violation. *)

val save : t -> out_channel -> unit
(** Serializes the complete log — segment tree with virtual
    coordinates, tombstones, elements (in document order, each with
    the depth of its slot as its level), tag registry — so a
    {!load} restores byte-identical behaviour, including local labels
    (a re-chop of the materialized text would assign new ones).  The
    payload ends with a [crc <8 hex digits>] line: the CRC-32 of
    every byte before it. *)

val load : ?pstore:Lxu_storage_core.Page_store.t -> in_channel -> t
(** Restores a log written by {!save} from the channel's position to
    its end; the channel must be seekable (a file).  The checksum
    trailer is verified in a first pass before anything is parsed, and
    every count and length is bounded by the bytes left before it is
    allocated.  Lines are scanned in place through a bounded buffer
    ({!Lxu_storage_core.Snapshot_io}) and accepted only in the
    spelling {!save} writes: single spaces, ints as [-?[0-9]+] within
    [max_int], ['\n'] line ends, no trailing bytes.  Derived structures (element columns, SB-tree, tag
    lists, path synopsis) are rebuilt from the segment data in time
    linear in the snapshot, stored levels must equal the rebuilt ones,
    and the result is cross-checked by {!check}.
    [pstore], as in {!create}, is where the SB-tree is rebuilt.
    @raise Failure on a malformed, damaged or incompatible snapshot
    (including the checksum-less format 1); never another exception. *)

(** {1 Fragmentation statistics}

    The maintenance scheduler's inputs: how much update debt the lazy
    discipline has accumulated, maintained incrementally so reading
    them costs O(1). *)

type frag_stats = {
  live_segments : int;
  dead_segments : int;  (** cumulative segments removed over the log's life *)
  er_depth : int;
      (** deepest ER chain (edges below the dummy root) — an insert-side
          high-water mark, re-anchored to the exact value by every
          {!fragmented_subtrees} scan *)
  dirty_tags : int;  (** per-tag pending runs awaiting a sort/merge *)
  doc_bytes : int;
  max_tag_segments : int;
      (** the widest per-tag list, in segments — tag skew: a tag
          scattered over many segments makes every join touching it
          pay a long merge pass, so the scheduler can prioritize
          packing by it *)
}

val frag_stats : t -> frag_stats
(** Snapshot of the counters above.  All are O(1) reads except
    [max_tag_segments], which scans the distinct tags (no sort
    forced). *)

type subtree_frag = {
  sid : int;
  gp : int;  (** current global position of the subtree's extent *)
  len : int;  (** current byte length of the extent *)
  segments : int;  (** live segments in the subtree, its root included *)
  depth : int;  (** deepest chain in the subtree, measured from the dummy root *)
}

val fragmented_subtrees : t -> subtree_frag list
(** The top-level subtrees (children of the dummy root), most
    fragmented first (by segment count, then chain depth).  Each
    extent [gp, gp+len) is a well-formed fragment of the current
    document — a valid pack target.  O(live segments) walk; also
    re-anchors {!frag_stats}[.er_depth] to its exact current value. *)
