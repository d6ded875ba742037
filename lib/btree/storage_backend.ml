(* Where an index structure keeps its nodes.  [Mem] is the existing
   in-memory fast path; [Paged] puts nodes on copy-on-write pages in a
   {!Lxu_storage_core.Page_store}, bounded in RAM by its buffer pool.
   [attach = true] means a durable tree for this structure already
   exists in the store (named root slot) and should be reopened rather
   than built empty — valid only when the store's checkpoint LSN
   matches the snapshot being loaded. *)

type spec =
  | Mem
  | Paged of { store : Lxu_storage_core.Page_store.t; attach : bool }

let fresh = function None -> Mem | Some store -> Paged { store; attach = false }
