(** The tag-list (§3.2): an inverted list mapping each tag id to the
    segments containing at least one element of that tag.

    Each entry carries the segment's ER-tree {e path} (the sids of its
    ancestors plus its own), the count of elements of that tag in the
    segment, which decides when to drop the entry on deletion (§3.3).
    Per-tag lists are kept sorted by the segments' current
    global positions under the lazy-dynamic discipline (every insert
    appends and merges at once); the lazy-static discipline appends
    unsorted and sorts on demand just before querying (§5.1).  Since
    the sorted run is in gp order, a removal or a decrement finds its
    entry by binary search on the segment's gp, in the lists of the
    segment's own tags only: O(log n) per tag, not a scan of every
    list.

    {b Versions.}  {!freeze} shares the whole list with a snapshot in
    O(1).  Each per-tag list carries the generation it was made or
    copied in, and the live side copies a list of an older generation
    (O(its length)) before its first change, so lists a write does not
    touch stay shared.  Entries are immutable: a decrement replaces
    the entry. *)

type entry = { sid : int; path : int array; count : int }

exception Dirty_tag_list of int
(** Raised by {!entries} when the requested tag's list is dirty; the
    payload is the tag id.  Call {!sort_all} first. *)

type t

val create : unit -> t

val append : t -> tid:int -> entry -> unit
(** Appends to the tag's {e pending run} and marks that tag's list
    dirty.  Dirtiness is tracked per tag, so updating one tag never
    forces a re-sort of the others.  This is the only way in: an LD
    insert appends and then calls {!sort_all} at once, an LS insert
    leaves the sort to the next query. *)

val sort_all : t -> gp_of:(int -> int) -> unit
(** Brings every dirty per-tag list back to global-position order.
    Clean lists (including all lists of tags no update touched) are
    left alone.

    The main run of a list stays sorted by {e current} gp across
    updates (gp shifts are monotone, so they never reorder existing
    entries), so only the pending run accumulated since the last sort
    needs sorting, followed by one backward merge that gallops: each
    pending entry finds its place by an exponential search back from
    the previous insertion point, then a binary search.  For p pending
    entries in a list of n that is O(p·log p) to sort plus
    O(p·log(n/p + 1)) calls to [gp_of] to merge — O(log n) for the
    one entry a single-segment insert brings — and the entries behind
    the first insertion point shift once.  Entries with equal gps keep
    the main run first and pending arrivals in arrival order. *)

val is_dirty : t -> bool
(** Whether any per-tag list is dirty (O(1)). *)

val dirty_count : t -> int
(** Number of per-tag lists with a pending run awaiting {!sort_all} —
    a fragmentation signal for the maintenance scheduler (O(1)). *)

val mark_dirty : t -> unit
(** Marks every per-tag list dirty, forcing the next {!sort_all} to
    re-sort all of them (benchmark helper for re-measuring the full LS
    pre-query cost). *)

val decrement : t -> tid:int -> sid:int -> gp:int -> gp_of:(int -> int) -> by:int -> unit
(** Lowers the element count of [(tid, sid)], where [gp] is the
    segment's gp in the coordinates [gp_of] gives every other
    segment; the entry is removed when the count reaches zero.
    Unknown pairs are ignored (the segment may already have been
    dropped).

    The main run is searched by gp, not scanned: a binary search on
    [gp] finds the run of entries at that gp, and a step across the
    whole run finds the sid, so [gp_of] is called on O(log n +
    that run) main-run entries and on no pending one.  The pending run
    is scanned (it is empty under the lazy-dynamic discipline after
    every write). *)

val remove_segment : t -> sid:int -> gp:int -> tids:int array -> gp_of:(int -> int) -> unit
(** Removes the segment's entries from the lists of [tids], the tags
    of its elements (full segment deletion), each found as in
    {!decrement}.  Lists of other tags are not visited. *)

val check : t -> gp_of:(int -> int) -> unit
(** Checks the main runs' order: each is in [gp_of] order, which the
    keyed search of {!decrement} and {!remove_segment} relies on, and
    two entries at the same gp stand ancestor first (the earlier
    entry's segment is on the later one's [path]), which the join's
    segment merge relies on.  The pending runs, in arrival order, are
    not looked at.
    @raise Failure naming the tag and the two segments out of order. *)

val freeze : t -> t
(** A snapshot of the list sharing every per-tag list with [t], in
    O(1).  Later changes to [t] copy a shared per-tag list first, so
    the snapshot never changes; it must not be changed itself. *)

val iter_entries : t -> (tid:int -> entry -> unit) -> unit
(** Every entry of every list, main and pending runs alike, in no
    stated order.  Readable while lists are dirty, and changes
    nothing. *)

val entries : t -> tid:int -> entry array
(** Entries for a tag in global-position order.
    @raise Dirty_tag_list if {e this tag's} list is dirty (call
    {!sort_all} first); other tags being dirty does not block the
    read. *)

val tag_segments : t -> tid:int -> int
(** Number of segments holding at least one element of the tag:
    main-run length plus pending-run length, O(1) and readable while
    the tag's list is dirty (cardinality never depends on order, so no
    sort is forced, unlike {!entries}). *)

val tag_elements : t -> tid:int -> int
(** Live elements of the tag across all segments, O(1) via a counter
    maintained by every add/decrement/removal; also readable while
    dirty. *)

val max_segments : t -> int
(** The widest per-tag list, in segments — the tag-skew signal
    surfaced through [Update_log.frag_stats] for the maintenance
    scheduler.  O(distinct tags), no sort forced. *)

val path_ops : t -> int
(** Cumulative count of path insertions/removals (cost metric). *)

val size_bytes : t -> int
(** Approximate footprint: the paper's O(T·N²) term. *)
