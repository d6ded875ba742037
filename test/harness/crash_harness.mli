(** The crash–recover differential harness.

    A workload is a random schedule of valid update operations
    (inserts of well-formed fragments at legal split points, removes
    and packs of whole elements, occasional rebuilds), deterministic
    in its seed.  {!run_one} applies it to a durable database, then
    simulates a crash at {e every} WAL record boundary: each prefix
    is recovered and its query-visible state (document text, element
    and segment counts, and the full all-pairs output of every
    vocabulary join) must be byte-identical to a never-crashed
    reference database that applied the same operation prefix.  On
    top of the boundary sweep it injects torn, bit-flipped and
    duplicated tails and checks recovery lands exactly on the last
    valid LSN instead of erroring out, and reruns the schedule with
    the WAL refusing one write (a full disk) to check that the handle
    stops there and recovery lands on the last committed LSN.

    Failures raise [Failure] with the seed, the boundary, and the
    generated schedule prefix ({!ops_to_string}), so any reported
    failure replays exactly — with or without the generator. *)

val vocabulary : string array
(** Element tags the generated fragments draw from. *)

val fragments : string array
(** Well-formed fragments the schedules insert. *)

val element_extents : string -> (int * int) list
(** [(start, stop)] byte extents of every element in a well-formed
    forest — the legal removal targets. *)

val gen_ops : seed:int -> target_ops:int -> Lxu_storage.Wal.op list
(** A valid random schedule of about [target_ops] operations. *)

val apply : Lazy_xml.Lazy_db.t -> Lxu_storage.Wal.op -> unit

val op_to_string : Lxu_storage.Wal.op -> string
(** Human-readable single operation, for replayable failure reports. *)

val ops_to_string : Lxu_storage.Wal.op list -> string
(** ["; "]-joined {!op_to_string} — the schedule prefix every harness
    prints on an assertion failure so the run replays without the
    generator. *)

val fingerprint : ?segments:bool -> Lazy_xml.Lazy_db.t -> string
(** Text, element/segment counts, and all-pairs join output over the
    vocabulary (both axes) — equality means query-indistinguishable.
    [~segments:false] leaves out the physical segment count, which
    packing and concurrent write orders legitimately change. *)

(** {2 Shared plumbing}

    The filesystem and differential helpers the other crash-style
    harnesses (notably [Maint_harness]) build their own schedules
    on. *)

val fresh_dir : string -> string
(** A unique per-process temp-directory path (not created). *)

val rm_rf : string -> unit
(** Removes a flat directory and its files; no-op if absent. *)

val with_dir : string -> (string -> 'a) -> 'a
(** [with_dir tag f] runs [f] on a fresh, created {!fresh_dir} and
    removes it afterwards. *)

val read_file : string -> string

val write_file : string -> string -> unit

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

val check : ctx:string -> string -> Lazy_xml.Lazy_db.t -> unit
(** [check ~ctx expected db] compares {!fingerprint}[ db] against
    [expected].
    @raise Failure with [ctx] and both fingerprints on divergence. *)

val run_one :
  ?checkpoint_at:int -> wal_fail_every:int -> seed:int -> target_ops:int -> unit -> int
(** One workload: boundary sweep plus fault injection; with
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

val run_matrix : seeds:int list -> target_ops:int -> wal_fail_every:int -> unit
(** {!run_one} for every seed (every third one checkpointing
    mid-workload), printing one progress line per seed.
    @raise Failure on the first diverging seed. *)
