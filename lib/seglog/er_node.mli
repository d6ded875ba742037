(** ER-tree nodes: one per XML segment (§3.2 of the paper).

    A node records the segment's {e physical} length [len], its
    immutable {e virtual} local position [lp] within its parent, its
    ancestry and children (sorted by global position) and the
    segment's elements in virtual local coordinates, stored once, as
    per-tag columns ({!cols}): the paper's element index (§3.4) is
    the only copy of a segment's elements.  Its global position [gp]
    is not on the node: the owning log's {!Seg_map} keeps it under the
    node's [slot], so shifting positions touches no node.

    {b Versions.}  Nodes are shared between the live log and the
    frozen snapshots it publishes.  Each node carries the generation
    it was made in; the live log changes a node in place only when
    the node is of its current generation, and otherwise works on a
    copy from {!own}.  A snapshot therefore never sees a node change.

    {b Coordinate model.}  Virtual coordinates are offsets into the
    segment's original text at insertion time; element labels and child
    [lp]s are virtual and never change.  Physical coordinates account
    for text later deleted from the segment, recorded as {e tombstone}
    ranges in virtual coordinates.  [len] is the physical length and
    additionally includes the lengths of all descendant segments, as
    maintained by the update algorithms of Figures 5 and 7. *)

type cols = { starts : int array; stops : int array; pids : int array }
(** One segment's elements of one tag in local document order:
    [[starts.(i), stops.(i))] is element [i]'s immutable virtual
    extent, [pids.(i)] its path-synopsis slot
    ({!Path_synopsis.add_segment}): the slot of its root-to-element tag
    path, which never changes, so neither does the slot.  Its absolute
    depth is [(Path_synopsis.depth_table syn).(pids.(i))].  All three
    arrays have equal length.  Never mutated after construction:
    callers share them freely, across frozen snapshots and the
    domains that read them (MVCC readers). *)

val empty_cols : cols
val cols_length : cols -> int

val cols_filter : (int -> bool) -> cols -> cols
(** The entries [i] of [c] with [keep i], in order: [c] itself when
    all are kept, otherwise new arrays ({!empty_cols} when none is).
    [keep] is called once per index, ascending. *)

type columns = private { tids : int array; per_tag : cols array }
(** A segment's element store: [tids] strictly ascending and
    [per_tag.(i)] the non-empty columns of tag [tids.(i)].  Starts
    are distinct across the segment. *)

val no_columns : columns
(** The store of a segment without elements. *)

val columns_of :
  tids:int array -> starts:int array -> stops:int array -> pids:int array -> columns
(** Splits a segment's elements, given in document order as parallel
    arrays (element [j] has tag [tids.(j)], extent [[starts.(j),
    stops.(j))] and slot [pids.(j)]), into per-tag columns by a
    stable counting sort on tag id: one O(n + span) pass for ids
    spanning at most 256 values, one more pass per further byte of
    span.
    @raise Invalid_argument on arrays of unequal length or a negative
    tag id. *)

type translator
(** A node's local→global translation frozen into prefix sums over its
    sorted tombstones and over its children's [lp]/[len], built in
    O(children + tombstones).  It holds no global position: a
    {!cursor} adds the reading version's [gp].  It is immutable, so
    one translator serves any number of cursors. *)

type t = {
  sid : int;
  slot : int;  (** where the owning log's {!Seg_map} keeps the segment's gp *)
  gen : int;  (** generation the node was made or copied in (see {!own}) *)
  mutable len : int;  (** physical length, descendants included *)
  lp : int;  (** virtual local position within the parent; immutable *)
  orig_len : int;  (** length of the original segment text *)
  text : string;  (** original segment text (materialization oracle) *)
  path : int array;
      (** ancestry: sids from the dummy root down to this node (the
          tag-list path); immutable *)
  mutable ctx : int array;
      (** context chain for the path synopsis: tag ids of the elements
          of ancestor segments strictly containing the splice point,
          outermost first; its length is the splice point's depth.
          Written once, when the node is linked or loaded, and never
          mutated. *)
  children : t Lxu_util.Vec.t;  (** sorted by global position *)
  mutable tombstones : (int * int) Lxu_util.Vec.t;
      (** deleted virtual ranges of own text; sorted, disjoint,
          non-adjacent.  Replaced wholesale by {!add_tombstone}, never
          edited in place, so copies share it. *)
  mutable columns : columns;
      (** the surviving elements: set by {!make} (or once by
          {!Update_log.load}), then replaced wholesale, only by
          {!remove_elements}, so node copies and snapshots share them *)
  mutable tr : translator;  (** cache of {!translator}; see there *)
}

val make_root : unit -> t
(** The dummy root: sid 0, empty text, spans the whole super
    document. *)

val make :
  sid:int ->
  slot:int ->
  gen:int ->
  parent_path:int array ->
  lp:int ->
  text:string ->
  columns:columns ->
  t
(** A fresh segment node of generation [gen] whose gp lives at [slot]
    and whose elements are [columns]; [path] is [parent_path] plus
    [sid], [ctx] is empty, and [len] and [orig_len] are the text
    length. *)

val own : gen:int -> t -> t
(** [own ~gen n] is a version of [n] that generation [gen] may change
    in place: [n] itself when it was made in [gen], otherwise a copy
    stamped [gen] with its own children vector, sharing text,
    columns and tombstones (all replace-only).  Either way
    the result has no cached translator.  The caller relinks a copy:
    into its parent's children, which must be owned first (a path
    from the root), and into the sid map. *)

val remove_elements : t -> vu:int -> vv:int -> (tid:int -> pid:int -> unit) -> unit
(** Drops the elements inside virtual range [[vu, vv)], calling
    [f ~tid ~pid] on each — the one way a segment's elements change.
    Only a tag holding such an element gets filtered columns; the
    others are shared, and a tag left empty leaves the segment.  The
    store is replaced wholesale (snapshots keep reading the old one),
    and only when an element is dropped.  The range must not split an
    element. *)

val cols : t -> tid:int -> cols
(** The segment's elements of tag [tid] ({!empty_cols} when it has
    none).  O(log distinct tags), no allocation. *)

val iter_columns : t -> (int -> cols -> unit) -> unit
(** [f tid cols] for every tag present in the segment, ascending. *)

val element_count : t -> int
(** The segment's surviving elements, O(distinct tags). *)

val iter_elements : t -> (tid:int -> start:int -> stop:int -> pid:int -> unit) -> unit
(** Every element of the segment in document order: a merge of the
    per-tag columns by start, O(n log k) for n elements over k tags.
    The one whole-segment walk (snapshots, checks, context chains). *)

val container_slot : t -> int -> int option
(** The synopsis slot of the innermost element strictly containing
    virtual position [x] ([start < x < stop]), [None] when no element
    does: its path is the context chain of a segment spliced at [x].
    O(elements starting before [x]) at worst. *)

val columns_size_bytes : t -> int
(** Heap bytes of the columns, headers included. *)

val is_root : t -> bool

val own_len : t -> int
(** Physical length of the node's own text: original length minus
    tombstoned bytes (descendant segments excluded). *)

val tombstoned_before : t -> int -> int
(** Total tombstoned virtual bytes before virtual position [x]
    (portions of tombstones extending past [x] excluded). *)

val virt_of_own_phys : t -> int -> int
(** Converts a physical offset within the node's own text (children
    excluded) to a virtual offset, skipping past tombstones; an offset
    landing on a tombstone boundary resolves after the gap. *)

val virt_of_own_phys_before : t -> int -> int
(** Like {!virt_of_own_phys} but a boundary offset resolves before the
    gap — the smallest virtual position with the same physical
    location.  Any position in between is physically equivalent;
    insertion clamps within this interval to keep child local
    positions ordered. *)

val add_tombstone : t -> int -> int -> unit
(** [add_tombstone t a b] marks virtual range [a, b) deleted, merging
    with existing tombstones.  Ranges must cover only live bytes or
    whole existing tombstones. *)

val global_extent_span : gp:int -> t -> start:int -> stop:int -> int * int
(** Current global [(start, stop)] of an element of local extent
    [[start, stop)]: [gp] (the node's), plus the live
    own bytes before each end (tombstones subtracted), plus the
    lengths of the children hooked before it — a child inserted
    exactly at the start precedes the element, one inserted exactly at
    the stop lies inside it.  This is the local→global translation
    that lets classical join algorithms run on the lazy store (§4).

    It is the {e linear reference}: every call scans all of the node's
    tombstones and children.  Only the {!Update_log.global_elements}
    oracle and the tests use it; every reader translates through
    {!Seg_map.cursor} instead. *)

val translator : t -> translator
(** The node's translator, built on first use and cached on the node.
    {!own} drops the cache, and every in-place change goes through
    {!own} first, so a cached translator always matches the node.  A
    published node never changes: a snapshot builds each translator
    at most once however many reads it serves. *)

val build_translator : t -> translator
(** A fresh translator, bypassing the cache (the cache's reference). *)

type cursor
(** A walk over one translator.  A cursor keeps two seats, one for
    starts and one for stops; a seat remembers the last offset it
    translated as its position in the sorted tombstone starts and
    child [lp]s.  A larger offset moves the seat forward by galloping,
    O(log gap); a smaller one, and the first, re-seats it by binary
    search, O(log (children + tombstones)).  So translating a column
    in local order — or any run of offsets that only goes up — costs
    O(offsets + children + tombstones) in all, with no hashing.  A
    cursor is mutable: give each walk its own. *)

val cursor : translator -> gp:int -> cursor
(** A cursor over a translator of a node whose global position is
    [gp]. *)

val cursor_start : cursor -> int -> int
(** [cursor_start c x] is the global position of an element starting
    at local [x] — the first component of {!global_extent_span}: a
    child hooked exactly at [x] precedes it. *)

val cursor_stop : cursor -> int -> int
(** [cursor_stop c x] is the global position of an element stopping
    at local [x] — the second component of {!global_extent_span}: a
    child hooked exactly at [x] lies inside it. *)

val iter_subtree : t -> (t -> unit) -> unit
(** Pre-order traversal of the node and its descendants. *)

val check : t -> unit
(** Validates subtree invariants: children [lp]-sorted inside their
    parent's text, each child's ancestry its parent's plus its own sid
    and its generation no newer than its parent's, lengths consistent,
    tombstones sorted/disjoint, column tags strictly ascending with
    non-empty equal-length columns, and the {!iter_elements} walk
    strictly ascending, properly nested and inside the original text.
    Slots and global positions are {!Seg_map.check}'s.
    @raise Failure on violation. *)
