(** Page-backed B+-tree over a {!Lxu_storage_core.Page_store}: the
    paged SB-tree's sid map.

    Keys are fixed-width int tuples ([kw] words, lexicographic order);
    values fixed [vw]-word tuples, stored inline.  All node bytes live
    on pages, so resident RAM is bounded by the store's buffer pool —
    the tree itself can exceed memory.

    Deletion is lazy (no rebalancing; empty nodes unlink, the root
    collapses); bulk loads pack leaves full.
    Insert has replace semantics on duplicate keys.

    Changed nodes are rewritten in place.  Nothing about the tree is
    durable: a loader builds it afresh ({!load_sorted}).

    Single writer; reads may run concurrently with each other (never
    with the writer — the seglog's existing discipline). *)

type t

val create : Lxu_storage_core.Page_store.t -> kw:int -> vw:int -> t
(** A fresh empty tree.  @raise Invalid_argument if a node cannot
    hold at least 2 entries / 3 children at this page size. *)

val length : t -> int

val insert : t -> int array -> int array -> unit
(** [insert t key value] — replaces on duplicate key.  The arrays are
    copied, not retained. *)

val remove : t -> int array -> bool
(** Whether the key was present. *)

val find : t -> int array -> value:int array -> bool
(** On a hit, fills [value] (length [vw]) with the stored words. *)

val mem : t -> int array -> bool

val iter : t -> (int array -> int array -> bool) -> unit
(** In-order scan.  The callback receives scratch key/value arrays
    valid only for that call; return [false] to stop. *)

val iter_from : t -> int array -> (int array -> int array -> bool) -> unit
(** In-order from the first key [>= lo]. *)

val load_sorted : t -> n:int -> get:(int -> int array -> int array -> unit) -> unit
(** Replaces the contents with [n] entries streamed through [get i
    kbuf vbuf] (fill the buffers for index [i]; keys strictly
    increasing), packing leaves full bottom-up in O(height) memory.
    Old pages are freed. *)

val insert_sorted_batch : t -> n:int -> get:(int -> int array -> int array -> unit) -> unit
(** Batch insert with replace semantics: per-key inserts for small
    batches, streaming merge-rebuild (old ∪ batch, batch wins) once
    the batch rivals the tree size. *)

val clear : t -> unit
(** Frees every page; the tree becomes empty. *)

val height : t -> int

val node_counts : t -> int * int
(** (leaves, branches). *)

val check_invariants : t -> unit
(** Sortedness, separator windows, occupancy bounds, uniform leaf
    depth, size agreement.  @raise Failure on violation. *)
