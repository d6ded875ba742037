(** The tag-list (§3.2): an inverted list mapping each tag id to the
    segments containing at least one element of that tag.

    Each entry carries the segment's ER-tree {e path} (the sids of its
    ancestors plus its own), the count of elements of that tag in the
    segment, which decides when to drop the entry on deletion (§3.3),
    and the segment's synopsis context chain and tag set, so the
    restricted joins' Proposition-3 filter needs no SB-tree lookup.  Per-tag lists are kept sorted by the segments' current
    global positions under the lazy-dynamic discipline (every insert
    appends and merges at once); the lazy-static discipline appends
    unsorted and sorts on demand just before querying (§5.1).

    {b Versions.}  {!freeze} shares the whole list with a snapshot in
    O(1).  Each per-tag list carries the generation it was made or
    copied in, and the live side copies a list of an older generation
    (O(its length)) before its first change, so lists a write does not
    touch stay shared.  Entries are immutable: a decrement replaces
    the entry. *)

type entry = {
  sid : int;
  path : int array;
  ctx : int array;  (** the segment's context chain ({!Er_node.t}[.ctx]), shared *)
  tags : int array;  (** the tags the segment held when inserted, ascending, shared *)
  count : int;
}

val may_have_ancestor : entry -> tid:int -> bool
(** Summary evidence for Proposition-3 skipping, read off the entry
    alone: [false] proves that no element of the entry's segment has
    an ancestor tagged [tid] — the tag is neither in the segment's
    context chain nor among its tags.  [true] is a may-answer (the tag
    set is not shrunk by element removals). *)

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

val decrement : t -> tid:int -> sid:int -> by:int -> unit
(** Lowers the element count of [(tid, sid)]; the entry is removed
    when the count reaches zero.  Unknown pairs are ignored (the
    segment may already have been dropped). *)

val remove_segment : t -> sid:int -> unit
(** Removes the segment's entries from every per-tag list (full
    segment deletion). *)

val freeze : t -> t
(** A snapshot of the list sharing every per-tag list with [t], in
    O(1).  Later changes to [t] copy a shared per-tag list first, so
    the snapshot never changes; it must not be changed itself. *)

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

val tids : t -> int list

val path_ops : t -> int
(** Cumulative count of path insertions/removals (cost metric). *)

val size_bytes : t -> int
(** Approximate footprint: the paper's O(T·N²) term. *)
