(** Fault-injectable file device — the I/O layer under the write-ahead
    log (append-only via {!write}) and the page file (positional via
    {!write_at}/{!read_at}).

    Every byte the WAL or page store persists goes through a write, so
    a scheduled fault deterministically corrupts exactly one write the
    way a crashing kernel or disk would: tearing it short, flipping a
    bit, or duplicating its tail (a re-issued write after a lost ack).
    Backed either by a real file or by an in-memory buffer (the crash
    harness runs thousands of recoveries; memory keeps that cheap).

    {b Write-back mode} ([~write_back:true]) models the OS page cache:
    writes are buffered in memory and reach the backing only on
    {!sync}, as a [write] without [fsync] leaves data in the kernel's
    hands.  A
    {!crash} drops the unsynced suffix (optionally keeping a lucky
    prefix the kernel happened to write out), so delayed-write
    reordering bugs — e.g. truncating a log before its replacement
    snapshot is durable — become reachable by the harnesses:
    {!durable_contents} is exactly what a post-crash recovery would
    read.

    Faults are deterministic: the harness derives them from
    {!Lxu_workload.Rng}, so every failing schedule replays exactly. *)

type t

type fault =
  | Truncate_tail of int  (** drop the last [n] bytes of the write *)
  | Bit_flip of int  (** flip bit [i] of the write, 0 = MSB-side of byte 0 *)
  | Duplicate_tail of int  (** re-append the last [n] bytes of the write *)

val in_memory : ?write_back:bool -> unit -> t
(** A buffer-backed device; {!sync} is a no-op unless [write_back]
    (default false), where it drains the buffered writes. *)

val open_path : ?append:bool -> ?write_back:bool -> string -> t
(** A file-backed device: one file descriptor, which every write,
    read, sync, truncate and close goes through; nothing is buffered
    in the process.  The file is created/truncated unless [append]
    (default false), which keeps existing contents.  [write_back]
    (default false) buffers writes until {!sync}.  A failed system
    call raises [Sys_error], as an injected {!fail_write} does.
    @raise Sys_error if the file cannot be opened. *)

val is_write_back : t -> bool

val inject : t -> nth_write:int -> fault -> unit
(** Schedules [fault] for write number [nth_write] (0-based, counting
    every {!write} since the device was opened).  At most one fault
    per write; the last injection wins. *)

val fail_write : t -> nth_write:int -> unit
(** Write number [nth_write] (counted as for {!inject}) persists
    nothing and raises [Sys_error "No space left on device"]. *)

val apply_fault : string -> fault -> string
(** What a faulty write persists instead of [data] — the pure
    corruption function, also usable directly on captured WAL bytes.
    Out-of-range faults clamp to the data (an empty write stays
    empty). *)

val random_fault : Lxu_workload.Rng.t -> len:int -> fault
(** A uniformly chosen fault scaled to a write of [len] bytes —
    deterministic in the generator state, so crash schedules replay
    exactly. *)

val write : t -> string -> unit
(** Appends [data], after applying any fault scheduled for this write
    index.  In write-back mode the data lands in the volatile buffer,
    not the backing; otherwise a file-backed device writes it to the
    file before returning (raising [Sys_error] on a full disk). *)

val write_at : t -> off:int -> string -> unit
(** Positional write: [data] lands at byte offset [off], overwriting
    in place and extending the file (zero-filling any hole) when it
    reaches past the end — the page file's primitive.  Faults apply
    exactly as for {!write}: a [Truncate_tail] here is a torn page.
    In write-back mode the write is buffered like any other; a
    {!crash} that drops it models a dirty page that never reached the
    platter. *)

val read_at : t -> off:int -> bytes -> int
(** [read_at t ~off buf] fills [buf] from byte offset [off] of the
    device as the {e process} observes it — buffered write-back data
    included, like {!contents} — and returns how many bytes were
    available (short at end of file).  O(pending writes) in write-back
    mode, O(length of [buf]) otherwise. *)

val writes : t -> int
(** Writes issued so far. *)

val pending_writes : t -> int
(** Buffered writes not yet drained to the backing (0 outside
    write-back mode, and right after {!sync}). *)

val sync : t -> unit
(** Drains buffered writes (write-back mode), then [fsync] for
    file-backed devices; no-op for an in-memory device outside
    write-back mode. *)

val crash : ?keep:int -> t -> unit
(** Simulated power loss for write-back devices: the oldest [keep]
    (default 0) buffered writes are persisted — the prefix the kernel
    happened to write out before dying — and the rest are dropped.
    The device stays usable (tests reuse it as the "rebooted"
    machine).  No-op outside write-back mode: everything already
    reached the backing. *)

val size : t -> int
(** Bytes the {e process} observes (backing plus buffered writes,
    faults included). *)

val contents : t -> string
(** The full stored bytes as the process observes them — buffered
    writes included, the way a read-after-write through the page
    cache would see them. *)

val durable_contents : t -> string
(** Only the bytes that survived to the backing — what recovery would
    find after a crash right now.  Equal to {!contents} outside
    write-back mode or right after {!sync}. *)

val truncate_to : t -> int -> unit
(** Discards everything past byte [n] — how recovery repairs a torn
    tail in place ([ftruncate] on the device's descriptor).  Drains
    buffered writes first (recovery owns the device; there is no
    concurrent crash to model mid-repair). *)

val close : t -> unit
(** Closes the device; idempotent.  Never writes: a write that failed
    (a full disk) is not retried, and buffered write-back data is
    {e dropped}, not persisted — closing a file never implied
    durability; call {!sync} first for a clean shutdown. *)

(** {1 Whole files} *)

val replace : string -> (out_channel -> unit) -> unit
(** [replace path write]: [write] fills [path ^ ".tmp"], which is
    fsynced and renamed over [path] before the directory is fsynced,
    so a crash leaves the old file or the new one, durably.  If a step
    raises, the temp file is removed and [path] left as it was. *)

val remove_durable : string -> unit
(** Removes [path], if it exists, and fsyncs its directory. *)

val mkdir_p : string -> unit
(** Creates a directory and its missing parents. *)

val read_file : string -> string
(** A whole file's bytes. *)
