(** A durable home for one database: a directory holding [snapshot]
    (the last checkpoint, with its LSN) and [wal] (the redo log of
    everything since).

    Lifecycle: {!fresh} initialises the directory for a new database;
    {!log_ops} (or {!batch} for group commit) persist each
    update; {!checkpoint} snapshots the current log and rotates the
    WAL; {!recover} rebuilds the state after a crash, truncating any
    torn or corrupt WAL tail in place so the next writer appends to a
    clean log. *)

type t

val wal_path : string -> string
val snapshot_path : string -> string

val dir : t -> string

val wal_bytes : t -> int
(** Current size of the live WAL file — the maintenance scheduler's
    rolling-checkpoint trigger. *)

val device : t -> Lxu_storage_core.Sim_file.t
(** The live WAL's device (a new one after each {!checkpoint}). *)

val failed : t -> bool
(** A WAL commit raised: its group never reached the log, so every
    later write, checkpoint and backup raises [Failure] pointing to
    {!recover}, and {!close} does not write the group again. *)

val check_writable : who:string -> t -> unit
(** @raise Failure, prefixed with [who], when the store has
    {!failed}. *)

val fresh :
  dir:string -> mode:Lxu_seglog.Update_log.mode -> index_attributes:bool -> t
(** Creates [dir] if needed, removes any previous snapshot, and
    starts an empty WAL.  Existing contents are discarded: this is
    for {e new} databases; use {!recover} to resume one. *)

val log_ops : t -> Wal.op list -> unit
(** Appends the records of one write as one group and commits them
    with a single device write (none at all inside {!batch}, whose
    commit covers them, so records accumulate in the group-commit
    buffer).  A single update is a group of one.  A crash mid-write
    persists a prefix of the group — each record replays individually,
    so recovery yields the state after that prefix. *)

val batch : t -> (unit -> 'a) -> 'a
(** Runs [f] with auto-commit off, then commits every record it
    logged with one device write.  On an exception the records logged
    so far are still committed (they describe updates that did
    happen); a commit that raises surfaces as [Fun.Finally_raised].  Not
    reentrant. *)

val checkpoint : t -> Lxu_seglog.Update_log.t -> unit
(** Writes a snapshot at the current LSN, then rotates the WAL to
    empty, each through {!Lxu_storage_core.Sim_file.replace}.  If
    either step raises, its temp file is gone and the store still
    appends to the old WAL (a snapshot already renamed into place
    makes recovery skip the records it holds).
    A crash between the two steps is safe: recovery skips replayed
    records at or below the snapshot LSN — and because the snapshot is
    durable {e before} the rotation's directory fsync, a resurrected
    pre-rotation log can never be the only copy of anything. *)

val backup : t -> dir:string -> int
(** [backup t ~dir] commits and fsyncs the live WAL, then copies the
    snapshot (if any) and the WAL into [dir] — each through
    {!Lxu_storage_core.Sim_file.replace}, snapshot first, so a crash mid-backup
    leaves [dir] restorable to {e some} committed point, never torn.
    Returns the last committed LSN (what {!restore_to} on the backup
    can reach).  Call with the store quiescent (e.g. under the
    writer lock).
    @raise Invalid_argument if [dir] is the live directory or the
    store is inside {!batch}. *)

val restore_to : dir:string -> lsn:int -> Lxu_seglog.Update_log.t * Recovery.report
(** Point-in-time restore: rebuilds the state as of committed LSN
    [lsn] from [dir]'s snapshot + WAL prefix, in memory — [dir] (a
    live directory or a {!backup}) is never written, so later history
    stays intact and the result must not be re-attached for appending.
    Records past [lsn] are skipped, not treated as corruption.
    @raise Failure when [dir] holds nothing recoverable, or its
    snapshot already covers more history than [lsn] (restore needs a
    backup from before that checkpoint). *)

val check_recoverable : dir:string -> unit
(** Checks that [dir] holds a snapshot or a WAL, without opening
    either.
    @raise Failure naming [dir], with {!recover}'s message, when it
    holds neither (or does not exist). *)

val recover :
  ?pstore:Lxu_storage_core.Page_store.t ->
  dir:string -> unit -> Lxu_seglog.Update_log.t * t * Recovery.report
(** Restores [snapshot + WAL suffix].  A corrupt tail is truncated
    from the WAL file; if the WAL header itself is unreadable but a
    snapshot exists, the snapshot wins and the WAL is re-initialised.
    With [pstore] the recovered log rebuilds its SB-tree on pages of
    that store (see {!Recovery.read_snapshot}).
    @raise Failure when nothing recoverable exists (no snapshot and
    no readable WAL header); messages include the path. *)

val close : t -> unit
(** Commits buffered records — unless the store has {!failed} — and
    closes the device; idempotent. *)
