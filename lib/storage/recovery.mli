(** Crash recovery: rebuild an update log from [snapshot + WAL
    suffix].

    The snapshot (a checkpoint) carries the LSN it was taken at;
    replay applies only WAL records {e past} that LSN and stops —
    without failing — at the first record the {!Wal.scan} validator or
    the replay itself rejects, so a torn or corrupt tail costs exactly
    the operations it contained and nothing before them.  Every error
    message names the file (when known) and the byte offset. *)

type report = {
  snapshot_lsn : int;  (** 0 when recovering without a snapshot *)
  records_total : int;  (** valid records seen in the WAL *)
  records_applied : int;
  records_skipped : int;  (** LSN at or below the snapshot's *)
  valid_bytes : int;  (** WAL prefix worth keeping, header included *)
  total_bytes : int;  (** WAL bytes on disk before repair *)
  corruption : string option;  (** why replay stopped early, if it did *)
  last_lsn : int;  (** state LSN after recovery; next record is [last_lsn + 1] *)
}

val nothing_replayed : ?corruption:string -> total_bytes:int -> int -> report
(** The report of a recovery that kept the snapshot at [lsn] and
    replayed no record of the [total_bytes] of WAL it found. *)

(** {1 Checkpoint snapshots} *)

val write_snapshot : path:string -> lsn:int -> Lxu_seglog.Update_log.t -> unit
(** Writes the header line ["LXUCKPT2 lsn <n> crc <8 hex>"], where the
    CRC-32 covers the ["lsn <n>"] text, followed by the
    {!Lxu_seglog.Update_log.save} payload (checksummed by its own
    CRC-32 trailer), through {!Lxu_storage_core.Sim_file.replace}: a crash at any point
    leaves either the previous snapshot or the new one, durably, so the
    WAL is never truncated on the strength of a snapshot a power cut
    can roll back. *)

val read_snapshot :
  ?pstore:Lxu_storage_core.Page_store.t -> path:string -> unit -> int * Lxu_seglog.Update_log.t
(** With [pstore], the loaded log rebuilds its SB-tree on new pages
    of that store.
    @raise Failure on a malformed snapshot, a header whose checksum
    does not match its LSN, or a format-1 ([LXUCKPT1], unchecksummed
    header) file; the message includes [path] and the byte offset. *)

(** {1 Replay} *)

val replay :
  ?pstore:Lxu_storage_core.Page_store.t ->
  Lxu_seglog.Update_log.t -> Wal.op list -> Lxu_seglog.Update_log.t
(** The one write path: live writes ({!Lazy_db}) and WAL replay apply
    their ops through this function.  Each maximal run of consecutive
    [Insert]s is one {!Lxu_seglog.Update_log.insert_batch}; [Remove] is one
    {!Lxu_seglog.Update_log.remove}; [Pack] re-indexes its byte range
    as one segment (a remove and an insert of the same bytes);
    [Rebuild] re-indexes the whole document as one segment in a fresh
    log, its SB-tree on new pages of [pstore] when given, and frees
    the old log's pages.  Returns the log to use from now on —
    [Rebuild] replaces it.

    A run refuses before it mutates anything: a one-op list is
    all-or-nothing, and so is a list of inserts.  A longer mixed list
    may stop part-way.
    @raise Invalid_argument or [Parse_error] on a semantically
    impossible op (which {!recover_bytes} treats as corruption). *)

val recover_bytes :
  ?pstore:Lxu_storage_core.Page_store.t ->
  ?path:string ->
  ?base:int * Lxu_seglog.Update_log.t ->
  ?upto_lsn:int ->
  string ->
  Lxu_seglog.Update_log.t * report
(** [recover_bytes wal_bytes] scans and replays captured WAL bytes in
    memory.  [base] is the checkpoint state [(lsn, log)] to start
    from; without it replay starts from an empty log configured by
    the WAL header.  The [base] log is mutated in place (pass a
    private copy).

    Records replay through {!replay}, one run at a time (a maximal
    run of consecutive [Insert] records is one batch).  A run that
    refuses replays record by record, so a record that cannot replay
    is still reported by its own LSN with everything before it kept.

    [upto_lsn] (default: everything) is the point-in-time restore
    bound: valid records with a higher LSN are skipped, not treated as
    corruption, so the result is the committed state exactly as of
    [upto_lsn].  [report.last_lsn] still reflects the last record
    {e applied}, and [valid_bytes] the full valid prefix — a
    restore-bounded replay never truncates history.
    @raise Failure only on an unreadable WAL header (see
    {!Wal.scan}). *)
