(** Volatile page allocator over a {!Page_file} and {!Buffer_pool}.

    The pages file is scratch: nothing on it outlives the process.
    The durable state is the snapshot and the WAL, and every paged
    index is rebuilt from them at load, so the store keeps no header,
    no meta page and no free-list chain, and never syncs.  Every page
    is writable in place; a freed page goes straight back on the one
    free list.

    Single writer; concurrent readers may use {!with_page} (the
    buffer pool is internally synchronized). *)

type t

type stats = {
  page_size : int;
  pages : int;  (** high-water mark: pids ever handed out *)
  free_pages : int;
  allocs : int;
  frees : int;
  cows : int;
      (** always 0: pages are written in place.  Kept only because
          [perfbench/perfbench.ml] reads it; goes when the benchmark
          is next revised. *)
  pool : Buffer_pool.stats;
}

val create :
  device:Sim_file.t -> ?page_size:int -> ?pool_bytes:int -> unit -> t
(** An empty store on [device]; no I/O happens here.  [page_size]
    defaults to 8 KiB; [pool_bytes] defaults to the [LXU_POOL_BYTES]
    budget. *)

val open_existing : device:Sim_file.t -> ?pool_bytes:int -> unit -> t
(** Truncates [device], then {!create}s on it: there is nothing on a
    pages file to reopen.  Kept only because [perfbench/perfbench.ml]
    binds it; it goes when the benchmark is next revised. *)

val close : t -> unit
(** Closes the underlying device. *)

val payload_bytes : t -> int
(** Bytes usable per page (page size minus the page-file header). *)

val alloc : t -> int
(** A pid off the free list, else one past the high-water mark.  The
    page's bytes are undefined until written ({!write_fresh}). *)

val free : t -> int -> unit
(** Returns [pid] to the free list and drops any resident frame
    without write-back. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** Read access to the page payload, pinned for the callback's
    duration.  The callback must not retain the buffer.
    @raise Page_file.Torn_page if the page fails verification. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page} but marks the frame dirty. *)

val write_fresh : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page_mut} for a just-allocated page: the frame starts
    zeroed instead of being read from disk. *)

val stats : t -> stats
val pool : t -> Buffer_pool.t
