(** The prime-number labeling scheme of Wu, Lee and Hsu (ICDE 2004),
    the paper's immutable-labeling baseline (Figure 17, "PRIME").

    Every node receives a distinct prime [self] label; its full label
    is the product of the self labels on its root path, so ancestry is
    a divisibility test.  Document order is kept outside the labels, in
    a table of simultaneous-congruence (SC) values: nodes are grouped
    [k] at a time in document order and each group stores the CRT
    solution of [sc mod self_i = order_i].  Inserting a node in the
    middle of the document shifts every following order number, forcing
    the SC of the insertion group and of all following groups to be
    recomputed — the dominant update cost the paper measures.

    Order numbers must stay below every self prime for the residues to
    be well defined, so self primes are drawn starting strictly above
    [capacity]; the structure refuses to hold more than [capacity]
    nodes. *)

type t
type node

val create : ?k:int -> ?capacity:int -> unit -> t
(** [create ~k ~capacity ()]: [k] is the group size (default 10);
    [capacity] bounds the node count (default 20_000). *)

val size : t -> int

val insert : t -> parent:node option -> order_pos:int -> node
(** [insert t ~parent ~order_pos] adds a node as a child of [parent]
    ([None] for a root) occupying position [order_pos] in document
    order (existing nodes at or after that position shift by one).
    The caller is responsible for choosing an [order_pos] consistent
    with [parent]'s span, as in the original scheme where order comes
    from the document text.
    @raise Invalid_argument if full or [order_pos] is out of range. *)

val append : t -> parent:node option -> node
(** [insert] at the end of the document order. *)

val is_ancestor : node -> node -> bool
(** Divisibility test on label products; a node is not its own
    ancestor. *)

val order_of : t -> node -> int
(** Document-order position recovered from the SC table. *)

val label : node -> Bignum.t

val sc_recomputations : t -> int
(** Cumulative count of group-SC recomputations (the Figure 17 cost
    metric, machine independent). *)

val label_bits : t -> int
(** Total bits across all stored label products (space metric). *)

val sc_bits : t -> int
(** Total bits across all stored SC values. *)

val check : t -> unit
(** Verifies that every node's recovered order matches its position
    (test helper). @raise Failure on violation. *)
