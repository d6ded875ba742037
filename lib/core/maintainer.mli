(** Self-maintenance: a scheduler that pays down the lazy scheme's
    accumulated update debt — deep ER chains, dirty tag-list pending
    runs, a growing WAL — in small crash-safe steps.

    The paper trades update speed for debt the "maintenance hours"
    operations repay; this module runs those hours in the gaps of live
    traffic, whenever its owner calls {!tick} (or {!run_until_idle}):
    it has no thread of its own.  Each {!tick} performs {e at most one}
    job, chosen from the {!Lxu_seglog.Update_log.frag_stats}
    fragmentation counters:

    {ul
    {- {b Rolling checkpoint} once the WAL outgrows
       [checkpoint_wal_bytes]: snapshot + atomic rename + directory
       fsync, then log rotation (see {!Lxu_storage.Wal_store}) —
       bounds recovery time and disk growth.}
    {- {b Incremental auto-pack}: the single most fragmented top-level
       subtree over the thresholds is re-indexed as one segment via
       {!Lazy_db.pack_subtree} — a normal epoch-committing, WAL-logged
       write, so a crash at any step boundary recovers cleanly and
       pinned MVCC readers are never disturbed.  One subtree per tick
       keeps each writer-lock hold small.}
    {- {b Tag-list merging}: dirty pending runs are merged off the
       query path ([Lazy_static] debt).}
    {- {b Scheduled backup}: ships snapshot + WAL to [backup_dir]
       every [backup_every] ticks; any committed state of the backup
       is reconstructible with {!Lazy_db.restore_to}.}}

    Superseded MVCC snapshot versions need no job: {!Shared_db}
    reclaims each one when its last pin drops.

    In governed mode every job runs through {!Governor.write}, so
    maintenance is bounded by the same admission as live traffic and
    is {e shed first} under load: a tick that finds foreground writers
    in flight defers ({!outcome.Busy}), and one that loses the
    admission race is rejected like any other writer
    ({!outcome.Shed}).  Jobs need no recovery logic of their own —
    each is individually crash-safe, so whatever step a crash
    interrupts either committed (and replays from the WAL) or never
    happened; the chaos harness in [test/harness/maint_harness.ml]
    kills the store at every step boundary to enforce exactly this. *)

type config = {
  pack_min_segments : int;
      (** pack a subtree holding more live segments than this *)
  pack_min_depth : int;  (** ... or an ER chain at least this deep *)
  pack_tag_skew : int;
      (** when some single tag's list spans at least this many
          segments ({!Lxu_seglog.Update_log.frag_stats}'
          [max_tag_segments]), treat the log as fragmented and accept
          any multi-segment subtree — structural joins over that tag
          degrade even when overall fragmentation is mild
          ([0] disables the trigger) *)
  checkpoint_wal_bytes : int;
      (** roll a checkpoint once the live WAL reaches this size *)
  merge_dirty_tags : int;
      (** merge pending runs once this many tag lists are dirty
          ([<= 0] disables the job) *)
  backup_every : int;  (** ship a backup every N ticks (0 = never) *)
  backup_dir : string option;
}

val default_config : config
(** [{ pack_min_segments = 8; pack_min_depth = 4; pack_tag_skew = 0;
      checkpoint_wal_bytes = 1 lsl 20; merge_dirty_tags = 16;
      backup_every = 0; backup_dir = None }].  A pack never takes an
    extent larger than 1 MiB, which keeps each step (and its
    writer-lock hold) small. *)

type job =
  | Pack of { gp : int; len : int; segments : int; depth : int }
      (** one subtree re-indexed; [segments]/[depth] are its
          pre-pack fragmentation *)
  | Merge_tag_runs of int  (** dirty tag lists merged *)
  | Checkpoint of int  (** WAL size (bytes) that triggered the roll *)
  | Backup of { dir : string; lsn : int }
      (** shipped through committed LSN [lsn] *)

type outcome =
  | Ran of job
  | Idle  (** no debt over any threshold *)
  | Busy  (** foreground writers in flight; deferred without queueing *)
  | Shed of Governor.rejection  (** lost the admission race *)

val job_to_string : job -> string
val outcome_to_string : outcome -> string

type t

val of_governor : ?config:config -> Governor.t -> t
(** Maintenance under admission: every job runs inside
    {!Governor.write} on the live database, so it serializes with —
    and is shed in favour of — foreground traffic.
    @raise Invalid_argument on a non-positive config bound. *)

val of_db : ?config:config -> Lazy_db.t -> t
(** Direct single-owner mode (no governor): jobs run straight on the
    database.  The mode for [Lazy_static] stores and the [lazyxml
    compact] CLI; the caller owns all synchronization. *)

val tick : t -> outcome
(** Runs at most one maintenance job and reports what happened.  Safe
    to call from any domain in governed mode.  Exceptions a job
    raises propagate to the caller. *)

val run_until_idle : ?max_steps:int -> t -> int
(** Ticks until the store reports no remaining debt ([Idle] — or
    [Busy]/[Shed], which a foreground-quiet caller never sees) and
    returns the number of jobs run.  The CLI [compact] loop. *)

type stats = {
  ticks : int;
  packs : int;
  merges : int;
  checkpoints : int;
  backups : int;
  idle : int;
  busy : int;
  shed : int;
}

val stats : t -> stats
