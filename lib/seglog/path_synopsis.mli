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
       off the segment's element skeleton with one stack scan.}}
    The synopsis therefore maintains exact per-path counts under
    [insert], [insert_batch], [remove] and packing without ever
    touching the element index, and without forcing a dirty tag-list
    sort.

    Costs: O(elements) per segment insert/remove (one stack scan, one
    hash update per element), O(distinct paths) space.  Counts are
    {e exact}, so a zero is proof of absence — the planner's license
    to skip whole joins and segments (selective Proposition 3). *)

type t

val create : unit -> t

val clone : t -> t
(** Copy-on-write snapshot for frozen clones, O(1), cheap enough for
    the MVCC publish path (which freezes after every committing
    write): the clone shares the path index and count arrays outright,
    and the live side copies a shared structure just before its first
    mutation after the freeze — one flat array copy per write, plus a
    bucket-level index copy only when a new distinct path appears.
    The clone itself must never be mutated concurrently with the
    original (frozen logs never are). *)

val elements : t -> int
(** Live elements across all paths. *)

val distinct_paths : t -> int

val tag_total : t -> tid:int -> int
(** Live elements of one tag, O(1). *)

val add_segment : t -> ctx_tids:int array -> elems:Er_node.elem Lxu_util.Vec.t -> unit
(** Registers a fresh segment with context chain [ctx_tids]: increments
    the path of every element of [elems] (which must be sorted by
    virtual start and properly nested, as segment skeletons are). *)

val remove_segment : t -> ctx_tids:int array -> elems:Er_node.elem Lxu_util.Vec.t -> unit
(** Full segment deletion: decrements every element's path.  [elems]
    is the segment's skeleton as it was before the deletion. *)

val remove_matching :
  ?until:int ->
  t ->
  ctx_tids:int array ->
  elems:Er_node.elem Lxu_util.Vec.t ->
  removed:(Er_node.elem -> bool) ->
  unit
(** Partial removal (tombstoning): decrements the paths of the
    elements of [elems] satisfying [removed].  [elems] must be the
    {e pre-removal} skeleton — surviving elements still enclose the
    removed ones during the scan, so paths come out exact.  [until]
    stops the scan at the first element starting at or past that
    virtual position: sound whenever [removed] rejects every element
    starting there or later, and it keeps range removals (packing's
    bread and butter) from walking the whole segment skeleton. *)

val iter : t -> (int array -> int -> unit) -> unit
(** [iter t f] calls [f path count] for every distinct live path.
    Paths are root-to-element tag-id arrays, shared — do not mutate.
    Iteration order is unspecified. *)

val to_sorted_list : t -> (int list * int) list
(** Deterministic dump for tests, sorted by path. *)

val equal : t -> t -> bool
(** Same path set with the same counts. *)

val size_bytes : t -> int
(** Approximate footprint of the paths and their counts. *)
