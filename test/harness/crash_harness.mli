(** The crash–recover differential harness.

    A workload is a random schedule of valid update operations
    (inserts of well-formed fragments at legal split points, removes
    and packs of whole elements, occasional rebuilds), deterministic
    in its seed.  {!run_one} applies it to a durable database, then
    simulates a crash at {e every} WAL record boundary: each prefix
    is recovered and its query-visible state (document text, element
    and segment counts, and the full all-pairs output of every
    vocabulary join) must be byte-identical to the never-crashed
    {!Reference} at the same LSN.  On
    top of the boundary sweep it injects torn, bit-flipped and
    duplicated tails and checks recovery lands exactly on the last
    valid LSN instead of erroring out, and reruns the schedule with
    the WAL refusing one write (a full disk) to check that the handle
    stops there and recovery lands on the last committed LSN.

    Failures raise [Failure] with the seed, the boundary, and the
    generated schedule ({!with_replay}), so any reported failure
    replays exactly — with or without the generator.

    The module is also the durable half of the test core every
    harness shares: the schedule generator, {!fingerprint}, the
    per-LSN {!Reference} replay, the crash-image layer
    ({!sweep_boundaries}, {!check_tail_fault}) and the file and
    replay plumbing.  The text model and the oracles are in
    [Lxu_props]. *)

val vocabulary : string array
(** Element tags the generated fragments draw from. *)

val fragments : string array
(** Well-formed fragments the schedules insert. *)

val gen_ops : seed:int -> target_ops:int -> Lxu_storage.Wal.op list
(** A valid random schedule of about [target_ops] operations. *)

val apply : Lazy_xml.Lazy_db.t -> Lxu_storage.Wal.op -> unit

val op_to_string : Lxu_storage.Wal.op -> string
(** Human-readable single operation, for replayable failure reports. *)

val ops_to_string : Lxu_storage.Wal.op list -> string
(** ["; "]-joined {!op_to_string}: the schedule {!with_replay}
    prints on a failure. *)

val fingerprint : ?segments:bool -> Lazy_xml.Lazy_db.t -> string
(** Text, element/segment counts, and all-pairs join output over the
    vocabulary (both axes) — equality means query-indistinguishable.
    [~segments:false] leaves out the physical segment count, which
    packing and concurrent write orders legitimately change. *)

val check : ctx:string -> string -> Lazy_xml.Lazy_db.t -> unit
(** [check ~ctx expected db] compares {!fingerprint}[ db] against
    [expected].
    @raise Failure with [ctx] and both fingerprints on divergence. *)

val with_replay :
  seed:int -> target_ops:int -> ?params:string -> (unit -> Lxu_storage.Wal.op list) ->
  (unit -> 'a) -> 'a
(** [with_replay ~seed ~target_ops schedule f] runs [f]; a [Failure]
    it raises is re-raised with
    [replay: seed=… target_ops=…<params> schedule=[…]] appended, the
    schedule read when the failure happens — enough to replay it with
    or without the generator. *)

(** {2 The reference replay}

    A never-crashed in-memory store that applies a schedule and
    records its fingerprint at every LSN: the state any recovery,
    restore or pinned snapshot at that LSN must reproduce. *)

module Reference : sig
  type t

  val create :
    ?engine:Lazy_xml.Lazy_db.engine -> ?fingerprint:(Lazy_xml.Lazy_db.t -> string) -> unit -> t
  (** An empty store (attributes indexed) at LSN 0; [fingerprint]
      defaults to {!fingerprint}. *)

  val apply : t -> Lxu_storage.Wal.op -> unit
  (** One logged operation: LSN + 1. *)

  val mirror : t -> Lazy_xml.Maintainer.job -> unit
  (** Mirrors a maintenance job: a pack is a logged operation; the
      other jobs change no query-visible state and log nothing. *)

  val of_ops : ?engine:Lazy_xml.Lazy_db.engine -> Lxu_storage.Wal.op list -> t

  val lsn : t -> int
  (** The LSN of the last applied operation. *)

  val at : t -> int -> string
  (** The fingerprint at an LSN.
      @raise Failure for an LSN outside [0, lsn]. *)

  val check : t -> ctx:string -> int -> Lazy_xml.Lazy_db.t -> unit
  (** [check r ~ctx k db]: [db] has the reference's engine and
      fingerprints as the reference at LSN [k], so every recovery
      checked here also comes back with the engine it was written
      with.  @raise Failure with [ctx] and both fingerprints, when the
      engines differ, or when [k] is outside [0, lsn]. *)
end

(** {2 Files} *)

val with_dir : string -> (string -> 'a) -> 'a
(** [with_dir tag f] runs [f] on a fresh, created directory under the
    temp directory and removes it, with everything in it, afterwards. *)

val with_fresh_tmpdir : (unit -> 'a) -> 'a
(** Runs [f] with {!Filename.get_temp_dir_name} set to a fresh
    directory and removes that directory afterwards, also when [f]
    calls [exit].
    @raise Failure naming every file [f] left in it (on [exit]: the
    names go to stderr and the exit code becomes 1). *)

val read_file : string -> string

val write_file : string -> string -> unit

(** {2 The crash-image layer} *)

val recover_image :
  tag:string ->
  ?snapshot_bytes:string ->
  wal_bytes:string ->
  unit ->
  Lazy_xml.Lazy_db.t * Lxu_storage.Recovery.report
(** Recovers a crash image — the WAL bytes and, when the workload
    checkpointed, the snapshot bytes — through {!Lazy_xml.Lazy_db.recover}
    on a scratch directory, and returns the (closed) database plus
    report. *)

val sweep_boundaries :
  ctx:string ->
  reference:Reference.t ->
  ?base:int ->
  ?snapshot_bytes:string ->
  wal_bytes:string ->
  unit ->
  int
(** Crashes a clean WAL at every record boundary: after the header and
    after each record.  The WAL must scan clean and hold one record
    per reference operation after LSN [base] (default 0, the
    snapshot's LSN when [snapshot_bytes] is given); the prefix ending
    at boundary [j] must recover through {!recover_image} with no
    corruption, [j] records applied and the reference state at LSN
    [base + j].  Returns the number of recoveries.
    @raise Failure on any divergence. *)

val check_tail_fault :
  ctx:string ->
  reference:Reference.t ->
  ?snapshot_bytes:string ->
  head:string ->
  tail:string ->
  Lxu_storage.Sim_file.fault ->
  int
(** Recovers the image [head ^ apply_fault tail fault] and checks it
    against the reference at the LSN recovery lands on.  Returns that
    LSN.
    @raise Failure on divergence. *)

val run_one :
  ?engine:Lazy_xml.Lazy_db.engine ->
  ?checkpoint_at:int ->
  wal_fail_every:int ->
  seed:int ->
  target_ops:int ->
  unit ->
  int
(** One workload on an [engine] store (default [LD]): the durable
    store, the WAL-failure stores and the {!Reference} all use it.
    Boundary sweep plus fault injection; with
    [checkpoint_at = k] the database checkpoints after operation [k]
    and every recovery goes through [snapshot + WAL suffix] on disk.
    The WAL-failure layer then reruns the schedule once per
    [wal_fail_every]-th operation [f] (1: every one) with the WAL
    device refusing op [f]'s write ({!Lxu_storage.Sim_file.fail_write}):
    the op must raise, the handle must refuse every later write,
    checkpoint and backup with its epoch unmoved, and {!Lazy_xml.Lazy_db.recover}
    after [close] must land at LSN [f] on the reference state after
    [f] operations.  Returns the number of recoveries performed.
    @raise Failure on any divergence. *)

val run_matrix :
  ?engine:Lazy_xml.Lazy_db.engine ->
  seeds:int list ->
  target_ops:int ->
  wal_fail_every:int ->
  unit ->
  unit
(** {!run_one} on [engine] (default [LD]) for every seed (every third
    one checkpointing mid-workload), printing one progress line per
    seed.
    @raise Failure on the first diverging seed. *)
