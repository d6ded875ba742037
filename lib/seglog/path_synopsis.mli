(** Path-summary synopsis: the set of distinct root-to-element tag
    paths in the super document, with a live element count per path —
    the structure of Arion et al.'s path summaries, maintained
    incrementally from the update log's segment edits.

    A {e tag path} of an element is the sequence of tag ids from the
    document root down to the element itself (the element's own tag
    last).  Because segments splice at a single point of their parent's
    virtual text, an element's ancestors decompose exactly into
    {ul
    {- the {e context chain} of its segment — the elements of ancestor
       segments strictly containing the segment's splice point, fixed
       at insertion time and immutable for the segment's lifetime (an
       enclosing element cannot be removed while the segment survives:
       its extent covers the whole segment, so removing it removes the
       segment too).  It is kept on the segment's node
       ({!Er_node.t}[.ctx]) and passed in by the caller; and}
    {- the enclosing elements within the segment's own fragment, read
       off the segment's elements in document order with one stack
       scan.}}
    The synopsis therefore maintains exact per-path counts under
    [insert], [insert_batch], [remove] and packing without ever
    touching the element index, and without forcing a dirty tag-list
    sort.

    {b Slots.}  Every distinct path ever seen has a {e slot}: an index
    into flat tables of its path, its depth and its live count.  Slots
    are append-only and never reused, and an element's path never
    changes (a segment is inserted whole and never gains an ancestor),
    so {!add_segment} hands each element its slot once and the segment
    keeps it in its columns ({!Er_node.cols}[.pids]).  An element's
    level is then [depth.(pid)], removes decrement by slot with no
    path walk, and a predicate-free path query reduces to a set of
    slots (path partitioning).

    Costs: O(elements) per segment insert (one stack scan, one hash
    probe per run of equal paths) and per removal (one decrement per
    element), O(distinct paths) space.  Counts are {e exact}, so a
    zero is proof of absence — the path executor's license to skip whole
    joins and segments (selective Proposition 3). *)

type t

val create : unit -> t

val clone : t -> t
(** Copy-on-write snapshot for frozen clones, O(1), cheap enough for
    the MVCC publish path (which freezes after every committing
    write): the clone shares the path index, the slot tables and the
    count arrays outright, and the live side copies a shared structure
    just before its first mutation after the freeze — one flat array
    copy per write, plus an index and slot-table copy only when a new
    distinct path appears.  The clone itself must never be mutated
    concurrently with the original (frozen logs never are). *)

val elements : t -> int
(** Live elements across all paths. *)

val distinct_paths : t -> int
(** Paths with at least one live element. *)

val slots : t -> int
(** Slots handed out so far, live or not: valid slots are [0, slots). *)

val depth_table : t -> int array
(** [depth_table t].(s) is the level of every element on slot [s]'s
    path (its length minus one).  Entries below {!slots} never change,
    and the array is never written once a {!clone} shares it — the
    live side writes to its own copy — so a reader of a frozen
    snapshot may capture it once while the writer goes on. *)

val parent_table : t -> int array
(** [parent_table t].(s) is the slot of slot [s]'s path without its
    last tag ([-1] for a one-tag path), always below [s]: a path's
    prefixes get their slots first.  Shared and never rewritten like
    {!depth_table}, so ascending slot order visits parents before
    children — the order the path matcher's dynamic programs use. *)

val path : t -> int -> int array
(** Slot [s]'s root-to-element tag-id path, shared — do not mutate. *)

val count : t -> int -> int
(** Live elements on slot [s]'s path. *)

val tag_total : t -> tid:int -> int
(** Live elements of one tag, O(1). *)

val add_segment :
  t -> ctx_tids:int array -> tids:int array -> starts:int array -> stops:int array -> int array
(** Registers a fresh segment with context chain [ctx_tids]: one stack
    scan increments the path of every element and returns each
    element's slot.  The elements come in document order (ascending
    start, properly nested) as parallel arrays — element [j] has tag
    [tids.(j)] and extent [[starts.(j), stops.(j))] — and so do the
    slots: the [pids] that {!Er_node.columns_of} stores in the
    columns. *)

val remove_segment : t -> Er_node.t -> unit
(** Full segment deletion: decrements the slot of every element in the
    segment's columns. *)

val remove_pid : t -> tid:int -> int -> unit
(** [remove_pid t ~tid pid] decrements one removed element of tag
    [tid] on slot [pid] (partial removal, tombstoning). *)

val iter : t -> (int array -> int -> unit) -> unit
(** [iter t f] calls [f path count] for every distinct live path, in
    slot order.  Paths are root-to-element tag-id arrays, shared — do
    not mutate. *)

val to_sorted_list : t -> (int list * int) list
(** Deterministic dump for tests, sorted by path. *)

val equal : t -> t -> bool
(** Same path set with the same counts (slot numbers may differ). *)

val size_bytes : t -> int
(** Approximate footprint of the paths, their depths and counts. *)
