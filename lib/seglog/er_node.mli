(** ER-tree nodes: one per XML segment (§3.2 of the paper).

    A node records the segment's mutable {e physical} global position
    [gp] and length [len], its immutable {e virtual} local position
    [lp] within its parent, its parent/children links (children sorted
    by [gp]) and the segment's element skeleton in virtual local
    coordinates.

    {b Coordinate model.}  Virtual coordinates are offsets into the
    segment's original text at insertion time; element labels and child
    [lp]s are virtual and never change.  Physical coordinates account
    for text later deleted from the segment, recorded as {e tombstone}
    ranges in virtual coordinates.  [len] is the physical length and
    additionally includes the lengths of all descendant segments, as
    maintained by the update algorithms of Figures 5 and 7. *)

type elem = { start : int; stop : int; level : int; tid : int }
(** An element of a segment: virtual local extent [start, stop) and
    absolute depth [level] in the super document. *)

type cols = { starts : int array; stops : int array; levels : int array }
(** One segment's elements of one tag in local document order:
    [[starts.(i), stops.(i))] is element [i]'s immutable virtual
    extent, [levels.(i)] its absolute depth.  All three arrays have
    equal length.  Never mutated after construction: callers share
    them freely, across domains and frozen snapshots. *)

val empty_cols : cols
val cols_length : cols -> int

type columns = private { tids : int array; per_tag : cols array }
(** A segment's element store: the skeleton split per tag, [tids]
    ascending and [per_tag.(i)] the columns of tag [tids.(i)]. *)

type t = {
  sid : int;
  mutable gp : int;  (** physical global position of the first byte *)
  mutable len : int;  (** physical length, descendants included *)
  lp : int;  (** virtual local position within the parent; immutable *)
  orig_len : int;  (** length of the original segment text *)
  base_level : int;  (** depth of the insertion point *)
  text : string;  (** original segment text (materialization oracle) *)
  mutable parent : t option;
  children : t Lxu_util.Vec.t;  (** sorted by [gp] *)
  tombstones : (int * int) Lxu_util.Vec.t;
      (** deleted virtual ranges of own text; sorted, disjoint,
          non-adjacent *)
  mutable elems : elem Lxu_util.Vec.t;
      (** surviving elements, sorted by [start].  Replaced wholesale,
          only through {!set_elems} — never mutated in place — so frozen
          clones can share the Vec (see {!clone}). *)
  mutable columns : columns;
      (** [elems] as per-tag columns; rebuilt by {!set_elems} only *)
}

val make_root : unit -> t
(** The dummy root: sid 0, empty text, spans the whole super
    document. *)

val make :
  sid:int -> gp:int -> lp:int -> base_level:int -> text:string -> elems:elem list -> t
(** A fresh segment node; [len] and [orig_len] are the text length,
    elements must be sorted by [start].  Builds the per-tag columns. *)

val set_elems : t -> elem Lxu_util.Vec.t -> unit
(** Replaces the skeleton (start-sorted) and rebuilds the columns from
    it — the one way a segment's elements change.  The old Vec and
    columns are left untouched, so clones keep reading them. *)

val cols : t -> tid:int -> cols
(** The segment's elements of tag [tid] ({!empty_cols} when it has
    none).  O(log distinct tags), no allocation. *)

val iter_columns : t -> (int -> cols -> unit) -> unit
(** [f tid cols] for every tag present in the segment, ascending. *)

val columns_agree : t -> bool
(** The columns equal a fresh per-tag split of the skeleton — the
    store's invariant, asserted by {!Update_log.check}. *)

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

val depth_at : t -> int -> int
(** Absolute depth of virtual position [x]: [base_level] plus the
    number of surviving elements strictly containing [x]. *)

val path : t -> int array
(** Sids from the dummy root down to this node (the tag-list path). *)

val child_index_for_gp : t -> int -> int
(** Index in [children] where a child with global position [gp] should
    be inserted to keep the vector sorted (after any child with equal
    [gp]). *)

val global_extent : t -> elem -> int * int
(** Current global [(start, stop)] of an element: [gp], plus the live
    own bytes before each end (tombstones subtracted), plus the
    lengths of the children hooked before it — a child inserted
    exactly at the start precedes the element, one inserted exactly at
    the stop lies inside it.  This is the local→global translation
    that lets classical join algorithms run on the lazy store (§4).

    It is the {e linear reference}: every call scans all of the node's
    tombstones and children.  The STD baseline and the
    {!Update_log.global_elements} oracle use it; query paths that
    translate many labels of one segment build a {!translator}
    instead. *)

val global_extent_span : t -> start:int -> stop:int -> int * int
(** As {!global_extent}, but on a bare local [(start, stop)] span. *)

type translator
(** A node's local→global translation frozen into prefix sums over its
    sorted tombstones and over its children's [lp]/[len]: each
    {!global_start}/{!global_stop} is two binary searches,
    O(log (children + tombstones)), and agrees with
    {!global_extent_span}.  Building one is O(children + tombstones).
    It captures [gp], [len]s, tombstones and children as they are when
    built, so it is valid only until the next update. *)

val translator : t -> translator

val global_start : translator -> int -> int
(** Global position of an element starting at local [x] — the first
    component of {!global_extent_span}: a child hooked exactly at [x]
    precedes it. *)

val global_stop : translator -> int -> int
(** Global position of an element stopping at local [x] — the second
    component of {!global_extent_span}: a child hooked exactly at [x]
    lies inside it. *)

val iter_subtree : t -> (t -> unit) -> unit
(** Pre-order traversal of the node and its descendants. *)

val clone : t -> t
(** Deep structural copy of the subtree for frozen snapshots: fresh
    node records, children and tombstone Vecs (both mutated in place
    by updates); shares the immutable [text] and the replace-only
    [elems] Vec and [columns].  The clone's [parent] is [None]. *)

val check : t -> unit
(** Validates subtree invariants: children sorted and disjoint,
    lengths consistent, tombstones sorted/disjoint, elements sorted
    and properly nested (test helper).
    @raise Failure on violation. *)
