(** Storage backend selector for index structures: the in-memory fast
    path, or page-backed nodes in a copy-on-write {!Lxu_storage_core.Page_store}
    whose RAM footprint is bounded by the buffer pool.

    [attach = true] reopens the structure's durable tree from its
    named root slot instead of starting empty — callers must first
    check the store's checkpoint LSN against the snapshot they are
    loading, and rebuild when they disagree. *)

type spec =
  | Mem
  | Paged of { store : Lxu_storage_core.Page_store.t; attach : bool }

val fresh : Lxu_storage_core.Page_store.t option -> spec
(** The backend of a log built from scratch: [Mem] without a store, a
    non-attaching [Paged] on it otherwise (its previous trees are
    cleared and re-indexed into new pages). *)
