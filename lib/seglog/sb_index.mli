(** The SB-tree (§3.3): sid → skeleton node, behind the storage
    backend switch.

    In memory it is a persistent map over sids, a 32-way radix trie: a
    lookup reads one array per level (log32 of the largest sid), and
    every change makes a new version sharing all but one root-to-leaf
    path with the old one, so {!freeze} hands a snapshot the current
    version in O(1).  Paged,
    the tree holds [sid → slot] pairs on copy-on-write pages while the
    {!Er_node.t} values stay in a RAM vector — skeleton nodes are the
    small hot part of the store and are rebuilt by every loader, so
    only the ordered sid structure benefits from paging.  Slots of
    removed sids leak until the next {!load_sorted} rebuild (which
    every [prepare_for_query] / pack performs). *)

type t

val create : ?backend:Lxu_btree.Storage_backend.spec -> unit -> t
(** A fresh empty mapping.  A paged backend always starts empty (the
    sid → node mapping cannot be attached from disk because the nodes
    live in RAM); the loader repopulates it via {!load_sorted}. *)

val length : t -> int
(** O(sids) in memory (a test helper). *)

val insert : t -> int -> Er_node.t -> unit
(** Replaces on duplicate sid. *)

val replace : t -> int -> Er_node.t -> unit
(** Points a sid already mapped at a new version of its node — the
    relink after a copy-on-write.  Paged, the node takes over the old
    node's slot, so nothing leaks.  A sid not mapped (a stale
    [Lazy_static] mapping awaiting its rebuild) is left alone. *)

val find : t -> int -> Er_node.t option
val remove : t -> int -> bool

val load_sorted : t -> (int * Er_node.t) array -> unit
(** Replaces the whole mapping from sorted distinct sids — the bulk
    rebuild path; also compacts the paged node vector. *)

val insert_sorted_batch : t -> (int * Er_node.t) array -> unit
(** Merge a sorted batch (replace semantics on duplicate sids). *)

val freeze : t -> iter:((Er_node.t -> unit) -> unit) -> t
(** An in-memory mapping for a frozen snapshot, which no later change
    to [t] reaches: in memory, the current version itself (O(1));
    paged, a map built from the nodes [iter] visits (the snapshot
    never touches the live page store). *)
