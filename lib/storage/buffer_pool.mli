(** Buffer pool: the RAM residency layer between page users (the
    paged B+-trees) and a {!Page_file}.

    Frames hold page payloads; users {!pin} a page to get its frame
    (faulting it in on miss), read or mutate [frame.buf] while pinned,
    and {!unpin} it when done, calling {!mark_dirty} after mutation.
    Unpinned frames stay resident and are evicted coldest-first
    (intrusive LRU) once residency exceeds the byte
    budget — dirty victims are written back first.  The budget comes
    from [LXU_POOL_BYTES] (default 16 MiB) unless overridden.

    All operations are thread-safe under one mutex; the frame contents
    themselves are not synchronized (the tree layers guarantee readers
    and the writer don't overlap on a page, matching the seglog's
    single-writer discipline). *)

type frame = private {
  f_pid : int;
  buf : bytes;  (** page payload; stable while the frame is resident *)
  mutable dirty : bool;
  mutable pins : int;
  mutable prev : frame option;
  mutable next : frame option;
}

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  overruns : int;
      (** frames admitted while every resident frame was pinned, so the
          pool stayed over budget instead of blocking *)
  frames : int;
  dirty_frames : int;
  pinned_frames : int;
  bytes : int;
  max_bytes : int;
}

type t

val create : ?max_bytes:int -> Page_file.t -> t
(** [max_bytes] is clamped up to 4 pages (a descent must fit); it
    defaults to [LXU_POOL_BYTES] if set and parseable, else 16 MiB. *)

val pin : t -> int -> read:bool -> frame
(** [pin t pid ~read] returns the pinned frame for [pid].  On a miss
    with [read = true] the page is read from the file (raising
    {!Page_file.Torn_page} as appropriate); with [read = false] the
    frame starts zeroed — for fresh pages about to be written.
    Eviction to budget happens here and never touches pinned frames;
    if everything is pinned the pool temporarily exceeds the budget. *)

val unpin : t -> frame -> unit
(** @raise Invalid_argument if the frame is not pinned. *)

val mark_dirty : t -> frame -> unit
(** The frame's payload was mutated; it will be written back on
    eviction. *)

val drop : t -> int -> unit
(** Forget page [pid] without write-back — it was freed and its bytes
    are dead.  No-op when not resident.
    @raise Invalid_argument if the frame is pinned. *)

val stats : t -> stats
