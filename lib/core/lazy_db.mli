(** Lazy XML database — the paper's system behind one facade.

    A database is a single {e super document} edited by inserting and
    removing well-formed XML segments at byte positions, exactly the
    text-editing model of §1.  Two engines implement the same
    interface:

    {ul
    {- [LD] (lazy dynamic): the update log of §3 kept query-ready on
       every update; queries run Lazy-Join (§4.2).}
    {- [LS] (lazy static): updates maintain only the ER-tree; tag lists
       are sorted and the SB-tree rebuilt at query time (§5.1).}}

    The paper's traditional baseline (global interval labels relabelled
    on every update, joined with Stack-Tree-Desc) is not an engine
    here: it lives beside this facade, as the interval store and the
    Stack-Tree-Desc joins of the baseline library [lib/baselines],
    which only the benchmarks and tests link.

    Queries are single structural joins [anc//desc] or [anc/desc],
    the primitive the paper (and the structural-join literature it
    builds on) optimizes. *)

type engine = LD | LS

type t

val create :
  ?engine:engine ->
  ?index_attributes:bool ->
  ?domains:int ->
  ?durability:[ `None | `Wal of string ] ->
  ?cache_bytes:int ->
  ?storage:[ `Mem | `Paged ] ->
  unit ->
  t
(** An empty database; [engine] defaults to [LD].  With
    [~index_attributes:true] attributes are indexed as subelements
    named ["@name"] and can appear in queries (e.g. [~desc:"@id"]).

    Every query and write runs on the calling domain.  [domains] is
    accepted and ignored: the query parallelism it set is gone (it was
    slower than one domain; see EXPERIMENTS.md).  It stays, like
    [cache_bytes], only because [perfbench/perfbench.ml] passes it,
    and goes when the benchmark is next revised.

    [durability] (default [`None]) makes every update crash-safe:
    with [`Wal dir] the database owns directory [dir], appending one
    checksummed record per {!insert}/{!remove}/{!pack_subtree}/
    {!rebuild} (one per edit for {!insert_many}) to a write-ahead log
    there (see {!Lxu_storage.Wal}), so {!recover} restores the state
    after a crash.  Every update applies its records through
    {!Lxu_storage.Recovery.replay} — the function recovery replays
    them with — and logs them only once the apply accepted them.  [`Wal] starts
    [dir] fresh — use {!recover} to resume an existing one.

    [cache_bytes] is accepted and ignored: the element cache it sized
    is gone (segments keep their own columns).  It stays only because
    [perfbench/perfbench.ml] passes it, and goes when the benchmark is
    next revised.

    [storage] (default [`Mem]) picks where the SB-tree lives.  [`Mem]
    keeps it on the OCaml heap.  [`Paged] puts it on pages in a
    {!Lxu_storage.Page_store} whose RAM residency is bounded by the
    buffer-pool budget ([LXU_POOL_BYTES]): with [`Wal dir] durability
    the pages live in [dir/pages], a scratch file truncated at open
    and never synced (nothing reads it after a restart); without
    durability they live on an in-memory device.  Element columns
    and segment texts stay on the heap under both.  Results are
    fingerprint-identical across backends. *)

val engine : t -> engine
(** The engine, read off the update log's mode. *)

(** {2 MVCC snapshots}

    Every successful update ({!insert}, {!insert_many}, {!remove},
    {!rebuild}, {!pack_subtree}) commits one {e epoch} — a
    session-local version number that {!Shared_db} publishes
    snapshots under. *)

val epoch : t -> int
(** Committed update operations so far (0 for a fresh database); for a
    {!snapshot}, the epoch it is pinned at. *)

val snapshot : t -> t
(** An immutable snapshot of the database at its current epoch: a
    frozen clone of the update log (segment texts and element
    columns shared, bookkeeping copied) served by the same
    query engines.  A later remove replaces the columns of the
    segments it cuts copy-on-write, so the snapshot keeps the state of
    its epoch.  Queries on the snapshot and updates on the live
    database may run concurrently from different domains without any
    lock — {!Shared_db} builds its lock-free reader path on exactly
    this.  Updates and maintenance on the snapshot raise
    [Invalid_argument]; queries, counts, {!text}, {!check} and
    {!save} all work. *)

val is_snapshot : t -> bool

(** {2 Updates}

    Every update is one write: it is refused on a {!snapshot} or after
    {!close} ([Invalid_argument], nothing applied), applied through
    {!Lxu_storage.Recovery.replay}, logged as one WAL record group
    when the database is durable, and committed as one epoch.  A refused update changes nothing.

    If the WAL write raises (say, a full disk), the update is applied
    but not logged: the exception propagates, the epoch stays, and the
    handle is failed ({!wal_failed}) — every later update, {!checkpoint}
    and {!backup} raises [Failure] pointing to {!recover}, which
    returns the state at the last committed LSN.  So does a {!batch}
    whose commit raises ([Fun.Finally_raised]); its epochs are undone. *)

val insert : t -> gp:int -> string -> unit
(** Inserts a well-formed fragment at global byte position [gp] — a
    batch of one ({!insert_many} with one edit).
    @raise Invalid_argument on out-of-bounds positions or empty text,
    on a snapshot, or after {!close}.
    @raise Lxu_xml.Parser.Parse_error on ill-formed text. *)

val insert_many : t -> (int * string) list -> unit
(** [insert_many t edits] applies the [(gp, text)] inserts in order,
    equivalent to — and fingerprint-identical with — calling {!insert}
    for each, but through the batched write path: every fragment
    parsed before any is applied, one bulk merge into each index
    (see {!Lxu_seglog.Update_log.insert_batch}), and one WAL record
    group persisted with a single flush.  A crash mid-batch recovers a
    prefix of the batch.

    The batch is all-or-nothing: on [Invalid_argument] or
    [Parse_error] no edit is applied and nothing is logged.
    @raise Invalid_argument / [Parse_error] as {!insert}, with gp
    bounds checked against the document as it will be after the
    preceding edits of the batch. *)

val remove : t -> gp:int -> len:int -> unit
(** Removes the byte range [gp, gp+len), which must be a well-formed
    fragment of the current document. *)

val query :
  t ->
  ?axis:Lxu_util.Axis.t ->
  ?guard:Lxu_util.Deadline.guard ->
  anc:string ->
  desc:string ->
  unit ->
  (int * int) list * Lxu_join.Lazy_join.stats
(** [query t ~anc ~desc ()] evaluates [anc//desc] (or [anc/desc] with
    [~axis:Child]) and returns [(anc_gstart, desc_gstart)] pairs sorted
    by [(desc, anc)], plus the join's own statistics: the pair count
    is [cross_pairs + in_pairs].  It is {!Lxu_join.Lazy_join.query},
    which translates each pair to global positions as the join emits
    it, plus the list built from its two columns.

    [guard] makes the join cooperative (see {!Lxu_join.Lazy_join.query}):
    evaluation raises [Lxu_util.Deadline.Cancel.Cancelled] promptly on
    a cancel or deadline expiry instead of running to completion.
    Without it, behaviour and cost are exactly as before. *)

val count :
  t ->
  ?axis:Lxu_util.Axis.t ->
  ?guard:Lxu_util.Deadline.guard ->
  anc:string ->
  desc:string ->
  unit ->
  int
(** Result cardinality of the join, read off the join's output
    buffers ({!Lxu_join.Lazy_join.count}): no pair is translated or
    materialized.  [guard] as in {!query}. *)

val doc_length : t -> int
val element_count : t -> int

val segment_count : t -> int
(** Live segments (always 1 after {!rebuild}; 0 for an empty
    document). *)

val text : t -> string
(** The full super-document text. *)

val rebuild : t -> unit
(** The "maintenance hours" operation of §1: re-indexes the whole
    database as a single segment and clears the update log. *)

val pack_subtree : t -> gp:int -> len:int -> unit
(** Segment packing (the future-work direction of §6): collapses every
    segment overlapping the byte range [gp, gp+len) — which must be a
    well-formed fragment — into a single segment, reducing the segment
    count at the cost of re-indexing that range. *)

val log : t -> Lxu_seglog.Update_log.t option
(** The underlying update log — always [Some].  The option type is
    kept only because [perfbench/perfbench.ml] binds this signature;
    it goes when the benchmark is next revised. *)

val cache_stats : t -> Lxu_seglog.Seg_cache.stats option
(** Always [None]: there is no element cache any more.  Kept only
    because [perfbench/perfbench.ml] binds it; goes when the benchmark
    is next revised. *)

val size_bytes : t -> int
(** Footprint of the index structures:
    {!Lxu_seglog.Update_log.size_bytes} of the log (SB/ER bookkeeping,
    tag lists and element columns). *)

val check : t -> unit
(** Full invariant check (test helper). *)

val save : t -> string -> unit
(** [save t path] writes a snapshot of the database — segment
    structure, immutable local labels, tombstones — to [path]. *)

val load : ?domains:int -> ?storage:[ `Mem | `Paged ] -> string -> t
(** Restores a database saved with {!save}; queries, updates and local
    labels behave exactly as before the save.  [domains] (ignored) and
    [storage] as in {!create} (a save file carries no storage kind — the indexes
    are rebuilt into whichever backend is requested).  The result has
    no WAL: a durable database starts from {!create} with
    [~durability] or from {!recover}.
    @raise Failure on a malformed snapshot; the message includes the
    file path and byte offset.
    @raise Sys_error if the file cannot be read. *)

(** {2 Durability}

    With [~durability:(`Wal dir)], the database's persistent state is
    [dir/snapshot] (the last {!checkpoint}, tagged with its LSN) plus
    [dir/wal] (one checksummed record per update since).  {!recover}
    reads both, replays the WAL suffix past the snapshot's LSN, and
    truncates any torn or corrupt tail at the first invalid record —
    the crash-safety contract exercised by the fault-injection
    harness in [test/]. *)

val checkpoint : t -> unit
(** Snapshots the current state into the WAL directory and rotates
    the log to empty, bounding recovery time.  Crash-safe at every
    step (temp-file renames; recovery skips already-snapshotted
    records).  A paged database's pages are not written: they hold
    nothing the snapshot does not.
    @raise Invalid_argument if the database has no WAL. *)

val batch : t -> (unit -> 'a) -> 'a
(** Group commit: updates performed by [f] are logged but only
    persisted — as a single device write — when [f] returns.  A crash
    mid-batch recovers a prefix of the batch.  Without durability,
    just runs [f].  Not reentrant. *)

val recover :
  ?domains:int -> ?storage:[ `Mem | `Paged ] -> string -> t * Lxu_storage.Recovery.report
(** [recover dir] restores the database whose durability directory is
    [dir] and reopens its WAL for appending, repairing (truncating) a
    torn tail in place.  The report says what was replayed, skipped
    and discarded.  [domains] is ignored, as in {!create}.

    With [`Paged] storage (default [`Mem]) the pages file
    [dir/pages] is truncated, whatever it held, and the SB-tree is
    rebuilt on it from the snapshot and the WAL, as every other index
    is.  The file is opened only once [dir] is known to hold a snapshot
    or a WAL; a recovery that fails closes it, and deletes it when it
    did not exist before.
    @raise Failure when [dir] holds nothing recoverable. *)

val wal_dir : t -> string option
(** The durability directory, when the database has one. *)

val wal_device : t -> Lxu_storage.Sim_file.t option
(** The live WAL's device (a new one after each {!checkpoint}). *)

val wal_failed : t -> bool
(** A WAL write raised; the handle refuses every write (see Updates). *)

val storage_kind : t -> [ `Mem | `Paged ]

val page_stats : t -> Lxu_storage.Page_store.stats option
(** Page-store counters — pages, the free list, allocations and
    frees, buffer-pool hits/evictions — when the database is paged. *)

val wal_bytes : t -> int option
(** Current size of the live WAL file, when the database has one — the
    maintenance scheduler's rolling-checkpoint trigger. *)

val backup : t -> dir:string -> int
(** [backup t ~dir] ships the durable state — snapshot (if any) plus
    the committed WAL — into directory [dir] via atomic renames (see
    {!Lxu_storage.Wal_store.backup}) and returns the last committed
    LSN.  Call with the database quiescent (e.g. inside
    {!Shared_db.write}).
    @raise Invalid_argument without durability, inside {!batch}, or
    when [dir] is the live directory. *)

val restore_to : lsn:int -> string -> t * Lxu_storage.Recovery.report
(** [restore_to ~lsn dir] is point-in-time restore: rebuilds the
    database exactly as of committed LSN [lsn] from [dir] (a live
    durability directory or a {!backup}), replaying the WAL prefix and
    skipping everything past [lsn].  [dir] is never written, and the
    returned database has {e no} durability handle — it is a read-only
    reconstruction of a point in the middle of [dir]'s history;
    persist it with {!save}/{!load} if it should become a new line of
    history.
    @raise Failure when [dir] holds nothing recoverable or its
    snapshot already covers more history than [lsn]. *)

val close : t -> unit
(** Commits any buffered WAL records and closes the log file (and the
    page store, when paged) — on a failed handle without writing the
    refused group again.  Every later update raises
    [Invalid_argument] before applying anything.  Idempotent. *)

val of_log : Lxu_seglog.Update_log.t -> t
(** Wraps an existing update log (engine inferred from its mode, no
    durability) — the hook the recovery test harness uses to query
    logs it rebuilt by hand. *)
