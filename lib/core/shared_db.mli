(** Concurrent access to a lazy XML database — the concurrency
    direction the paper leaves as future work (§6).

    This is MVCC with snapshot isolation: every committing update
    publishes an immutable frozen snapshot of the update log (see
    {!Lazy_db.snapshot}), and a reader pins the newest
    published snapshot on entry — an O(1) critical section — then
    evaluates its queries against it {e without holding any lock}.
    Readers never block writers, writers never block readers; writers
    serialize among themselves, preserving the WAL's serializable
    update history exactly as before.  Superseded snapshots are
    retained while any reader is pinned to them and reclaimed when the
    last pin drops.  Snapshots share every segment's immutable element
    columns with the live log; a write that cuts into a segment swaps
    in new columns, so there is no per-version cache to sweep.

    The engine is always [LD].  [LS] is not served — its deferred
    sorting makes the first query after an update a writer, defeating
    shared reads (use {!Lazy_db.snapshot} directly for single-writer
    LS setups).

    This layer adds only the versions, the pins and the writer lock:
    every query and update is a {!Lazy_db} call inside {!read} or
    {!write}, e.g.
    [Shared_db.write t (fun db -> Lazy_db.insert db ~gp text)]. *)

type t

val of_db : Lazy_db.t -> t
(** Takes over a live database — fresh ({!Lazy_db.create}), loaded or
    recovered ({!Lazy_db.recover}) — for shared access; from here on
    it is touched only through {!read} and {!write}.  A durable
    database's writers append their WAL records under the writer
    lock, so the on-disk log always reflects a serializable update
    history.
    @raise Invalid_argument on an [LS] database or a {!Lazy_db.snapshot}
    — the only place this module checks either. *)

val checkpoint : t -> unit
(** Snapshots and rotates the WAL under the writer lock.  Commits no
    epoch, so pinned readers are unaffected.
    @raise Invalid_argument if the database has no WAL. *)

val close : t -> unit
(** Closes the WAL (if any) under the writer lock. *)

val read : t -> (Lazy_db.t -> 'a) -> 'a
(** Runs [f] against the newest published snapshot, pinned for the
    duration of the call — no lock is held while [f] runs.  Every
    query [f] issues sees the same epoch; updates committing meanwhile
    become visible to {e later} reads only.  [f] must not update the
    database (the snapshot raises [Invalid_argument] if it tries). *)

val write : t -> (Lazy_db.t -> 'a) -> 'a
(** Runs [f] on the live database under the writer lock.  All epochs
    [f] commits are published as one new snapshot version when it
    returns, so readers see a batch ({!Lazy_db.insert_many}) or
    several updates made in one [f] as one version.  On exception too:
    every committed {!Lazy_db} op is all-or-nothing, so whatever
    prefix committed is consistent and becomes visible — except when a
    WAL write failed during [f] ({!Lazy_db.wal_failed}): then nothing
    is published and readers keep the last published version. *)

(** {2 Explicit snapshot handles}

    {!read} brackets pin/unpin around a callback; these expose the
    same pinning as a first-class value, for multi-step read
    transactions that outlive a callback scope (and for tests that
    park a reader across writer activity). *)

type snapshot

val begin_snapshot : t -> snapshot
(** Pins the newest published snapshot. *)

val snapshot_db : snapshot -> Lazy_db.t
(** The pinned frozen database; valid until {!end_snapshot}.
    @raise Invalid_argument after {!end_snapshot}. *)

val snapshot_epoch : snapshot -> int

val end_snapshot : snapshot -> unit
(** Releases the pin (idempotent).  Dropping the last pin of a
    superseded version reclaims it. *)

(** {2 Introspection} *)

val stats : t -> int * int
(** [(reads_completed, writes_completed)] — exact: the counters are
    atomics, so no completion is ever lost to a racing update. *)

val current_epoch : t -> int
(** Epoch of the newest published snapshot. *)

type mvcc_stats = {
  versions : int;  (** retained snapshot versions, including current *)
  pinned : int;  (** pins held right now, over all versions *)
  published_epoch : int;
  floor : int;  (** oldest epoch any reader may still pin *)
}

val mvcc_stats : t -> mvcc_stats option
(** Always [Some]: the option type is kept only because
    [perfbench/perfbench.ml] binds this signature, and goes when the
    benchmark is next revised.  At quiescence (no pinned readers),
    [versions = 1] and [pinned = 0] — the leak check the MVCC harness
    asserts. *)
