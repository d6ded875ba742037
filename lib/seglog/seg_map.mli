(** The segments' global positions (§3): the one structure that maps
    an ER-tree node to where its text starts in the super document.

    A segment's gp is not on its node.  Each node names a [slot]
    ({!Er_node.t}[.slot]) and the map holds every live slot's gp in
    one flat int array, so the gp shift of an insert or a remove
    (Figures 5 and 7) is a loop over unboxed ints that touches no
    node, and {!freeze} copies one array.  A removed segment's slot is
    reused.  The dummy root is slot 0, at gp 0.

    Child order stays on the nodes ({!Er_node.t}[.children]); the map
    answers the gp-keyed questions about it: where a new child goes,
    which child covers a position, and how far into its parent's own
    text a position falls.  Each is a binary search over the
    children's gps, O(log children): no insert or remove walks a
    parent's whole child list. *)

type t

val create : unit -> t
(** A map holding only the dummy root: slot 0 at gp 0. *)

val alloc : t -> int -> int
(** [alloc t gp] is a free slot, now holding [gp]: a removed segment's
    slot when there is one. *)

val free : t -> int -> unit
(** Returns a removed segment's slot for reuse.  No shift moves it. *)

val gp : t -> Er_node.t -> int
(** The node's current global position, O(1).  The node must be one
    of this map's version of the tree. *)

val set : t -> Er_node.t -> int -> unit
(** Moves one node: a remove's right intersection, whose survivor
    starts where the removed range ended. *)

val shift : t -> from:int -> int -> int
(** [shift t ~from delta] adds [delta] to every gp at or after [from],
    the root's excepted, and returns how many it moved: the gp shift of
    Figures 5 and 7. *)

val child_index : t -> Er_node.t -> int -> int
(** Index in the node's [children] where a child at global position
    [gp] goes to keep them sorted: after every child at or before
    [gp]. *)

val covering_child : t -> Er_node.t -> int -> int
(** The index of the node's child strictly covering [gp] ([gp c < gp <
    gp c + len c]), or [-1] when none does.  During an insert, after
    {!shift} moved every child at or after [gp] and before the covering
    child's length grows, this is the child the insert descends into. *)

val own_offset : t -> Er_node.t -> int -> int
(** The physical offset inside the node's own text (tombstones and
    children excluded) at which a segment inserted at global [gp]
    hooks: [gp] minus the node's gp minus the lengths of its children
    before [gp] — the local position of Definition 2 before its
    conversion to virtual coordinates.  O(log children + tombstones):
    it reads only the last child starting before [gp], whose own gp
    accounts for every earlier sibling. *)

val cursor : t -> Er_node.t -> Er_node.cursor
(** A fresh cursor over the node's cached translator
    ({!Er_node.translator}) at its gp in this map: the one way a reader
    turns local labels into global positions.  It takes the node the
    reader already holds, never a sid. *)

val freeze : t -> t
(** A copy of the live slots' gps for a frozen snapshot: one int per
    slot, nothing else. *)

val check : t -> Er_node.t -> unit
(** Checks the map against the tree rooted at the given dummy root,
    whose structure {!Er_node.check} has passed: every node has its own
    slot, in range and off the free list; the root is slot 0 at gp 0;
    and every child's gp is the one its place in the tree gives (the
    linear reference):
    [gp c = gp p + (c.lp - tombstoned_before p c.lp) + ]the lengths of
    [c]'s earlier siblings.
    @raise Failure naming the first segment at fault. *)
