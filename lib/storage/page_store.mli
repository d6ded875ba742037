(** Shadow-paged store: copy-on-write pages, named roots, and
    checkpoint-published double-buffered meta over a {!Page_file} and
    {!Buffer_pool}.

    The contract that makes recovery trivial: {e pages referenced by
    the last durable meta are never overwritten}.  Mutators call
    {!cow} to relocate such a page to a fresh pid first; {!checkpoint}
    flushes dirty frames, serializes the free list, syncs, and only
    then publishes a new meta page (generation [g] goes to pid
    [1 + g mod 2]) before syncing again.  A crash at any point leaves
    at least one CRC-valid meta whose referenced pages are intact;
    {!open_existing} picks the newest valid one.

    Freed pages that the durable meta still references wait in a
    pending set until the next checkpoint; pages allocated and freed
    within one epoch are recycled immediately.

    Single writer; concurrent readers may use {!with_page} (the
    buffer pool is internally synchronized). *)

type t

type stats = {
  page_size : int;
  pages : int;  (** high-water mark, including header + meta pages *)
  reusable_pages : int;
  pending_pages : int;
  fresh_pages : int;
  generation : int;
  ckpt_lsn : int;
  allocs : int;
  frees : int;
  cows : int;
  pool : Buffer_pool.stats;
}

val create :
  device:Sim_file.t -> ?page_size:int -> ?pool_bytes:int -> unit -> t
(** Initializes a fresh store on [device]: raw geometry header at
    byte 0, generation-0 meta, one sync.  [page_size] defaults to
    8 KiB; [pool_bytes] defaults to the
    [LXU_POOL_BYTES] budget. *)

val open_existing : device:Sim_file.t -> ?pool_bytes:int -> unit -> t
(** Reads the geometry header, picks the newest CRC-valid meta page,
    and rebuilds the free list from its chain.
    @raise Failure if no valid header or meta survives. *)

val close : t -> unit
(** Closes the underlying device.  Does {e not} checkpoint: unflushed
    epoch work is deliberately lost, as a crash would lose it. *)

val page_size : t -> int

val payload_bytes : t -> int
(** Bytes usable per page (page size minus the page-file header). *)

val alloc : t -> int
(** A fresh pid — reused from the free list when possible, else
    extending the file.  The page's on-disk bytes are undefined until
    written ({!write_fresh}). *)

val free : t -> int -> unit
(** Releases [pid].  Immediately reusable if allocated this epoch;
    otherwise queued until the next checkpoint.  Drops any resident
    frame without write-back. *)

val is_fresh : t -> int -> bool
(** Was [pid] allocated this epoch (and hence mutable in place)? *)

val cow : t -> int -> int
(** [cow t pid] returns a pid whose page holds the same payload and
    may be mutated: [pid] itself when fresh, else a fresh copy ([pid]
    is freed).  Callers must rewrite parent pointers to the returned
    pid. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** Read access to the page payload, pinned for the callback's
    duration.  The callback must not retain the buffer.
    @raise Page_file.Torn_page if the page fails verification. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page} but marks the frame dirty.
    @raise Invalid_argument if [pid] is not fresh — mutating a
    checkpointed page would corrupt the durable tree. *)

val write_fresh : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page_mut} for a just-allocated page: the frame starts
    zeroed instead of being read from disk. *)

val set_root : t -> string -> pid:int -> size:int -> unit
(** Publishes a named root slot (≤ 16-byte name) into the next meta.
    [size] is an opaque payload for the owner (e.g. tree cardinality). *)

val root : t -> string -> (int * int) option
(** [(pid, size)] as of the last {!set_root} (or durable meta). *)

val checkpoint : t -> lsn:int -> unit
(** Makes the current state durable and labels it with [lsn] (the WAL
    position it corresponds to): flush dirty frames → serialize free
    list → sync → publish meta → sync → promote pending frees. *)

val checkpoint_lsn : t -> int
(** The [lsn] of the newest durable meta, [-1] if never
    checkpointed. *)

val stats : t -> stats
val device : t -> Sim_file.t
val pool : t -> Buffer_pool.t
