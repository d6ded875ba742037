(* MVCC: readers pin the newest published snapshot (O(1) under
   [vlock], never held during a query), writers serialize among
   themselves under [wlock] and publish a fresh frozen snapshot after
   every committing call. *)

type version = {
  v_epoch : int;
  v_db : Lazy_db.t;  (* frozen snapshot ([Lazy_db.snapshot]) *)
  mutable v_pins : int;  (* readers currently inside [f v_db] *)
}

type t = {
  db : Lazy_db.t;  (* the live database; touched only under [wlock] *)
  wlock : Mutex.t;  (* writer–writer serialization *)
  vlock : Mutex.t;  (* version table; every hold is O(versions) *)
  mutable current : version;  (* newest published snapshot *)
  mutable versions : version list;  (* retained versions, newest first *)
  reads_done : int Atomic.t;
  writes_done : int Atomic.t;
}

let of_db db =
  if Lazy_db.is_snapshot db then
    invalid_arg "Shared_db.of_db: a frozen snapshot cannot take writes";
  if Lazy_db.engine db = Lazy_db.LS then
    invalid_arg "Shared_db.of_db: LS queries mutate the log; use LD";
  let v0 = { v_epoch = Lazy_db.epoch db; v_db = Lazy_db.snapshot db; v_pins = 0 } in
  {
    db;
    wlock = Mutex.create ();
    vlock = Mutex.create ();
    current = v0;
    versions = [ v0 ];
    reads_done = Atomic.make 0;
    writes_done = Atomic.make 0;
  }

(* --- MVCC internals -------------------------------------------------- *)

(* With [vlock] held: drop unpinned superseded versions.  A dropped
   snapshot's clone is garbage once its last reader returns; the
   segment columns it shared with newer versions stay reachable from
   them. *)
let reclaim_locked t =
  t.versions <-
    List.filter (fun v -> v == t.current || v.v_pins > 0) t.versions

let pin t =
  Mutex.lock t.vlock;
  let v = t.current in
  v.v_pins <- v.v_pins + 1;
  Mutex.unlock t.vlock;
  v

let unpin t v =
  Mutex.lock t.vlock;
  v.v_pins <- v.v_pins - 1;
  reclaim_locked t;
  Mutex.unlock t.vlock

(* With [wlock] held and the live database quiescent: freeze it and
   install the snapshot as [current].  Freezing happens outside
   [vlock] — only the installation is a critical section.

   The writer then empties the minor heap.  Allocation restarts at
   the minor heap's end after every collection, so with one per
   publish the reads between two writes allocate into the same few
   recently touched megabytes; without it they walk the whole minor
   heap (64 MB under perfbench and bench/) through lines long out of
   cache.  Now that queries build no pair records, the reads that
   allocate most are paths: the executor's [Bytes] selection masks,
   stored into [sel] arrays (major-heap blocks past 256 entries).  On
   churn_durable, dropping the collection read update p50 -20 % and
   p95 -35 %, but path p50 +26 % and p95 +12 % (0/10 and 1/10 pairs
   better).  The reads lose on cache misses, not on promotion: a run
   promoted 7.5 M words with the collection and 6.5 M without.  With a
   2 MB minor heap dropping it made every read faster, so it pays for
   itself only with a large minor heap (EXPERIMENTS.md, "translate at
   emission"). *)
let publish_locked t =
  let v =
    { v_epoch = Lazy_db.epoch t.db; v_db = Lazy_db.snapshot t.db; v_pins = 0 }
  in
  Mutex.lock t.vlock;
  t.current <- v;
  t.versions <- v :: t.versions;
  reclaim_locked t;
  Mutex.unlock t.vlock;
  Gc.minor ()

(* --- the shared surface ---------------------------------------------- *)

let read t f =
  let v = pin t in
  Fun.protect
    ~finally:(fun () ->
      Atomic.incr t.reads_done;
      unpin t v)
    (fun () -> f v.v_db)

let write t f =
  Mutex.lock t.wlock;
  let before = Lazy_db.epoch t.db in
  Fun.protect
    ~finally:(fun () ->
      (* Publish whatever committed, even when [f] raised after some
         epochs went through (each Lazy_db op is all-or-nothing, so
         the live state is consistent at every op boundary) — unless
         a WAL write failed: the live state then holds an update the
         log never saw, and readers keep the last published version. *)
      if Lazy_db.epoch t.db <> before && not (Lazy_db.wal_failed t.db) then publish_locked t;
      Atomic.incr t.writes_done;
      Mutex.unlock t.wlock)
    (fun () -> f t.db)

(* --- explicit snapshot handles --------------------------------------- *)

type snapshot = { s_owner : t; s_version : version; mutable s_ended : bool }

let begin_snapshot t = { s_owner = t; s_version = pin t; s_ended = false }

let end_snapshot s =
  if not s.s_ended then begin
    s.s_ended <- true;
    unpin s.s_owner s.s_version
  end

let snapshot_db s =
  if s.s_ended then invalid_arg "Shared_db.snapshot_db: snapshot already ended";
  s.s_version.v_db

let snapshot_epoch s = s.s_version.v_epoch

(* --------------------------------------------------------------------- *)

(* WAL appends happen inside Lazy_db's update path, so they are
   already serialized under the writer lock; checkpoint takes the same
   lock to snapshot a quiescent log.  Neither commits an epoch, so no
   new version is published. *)
let checkpoint t = write t Lazy_db.checkpoint
let close t = write t Lazy_db.close

let stats t = (Atomic.get t.reads_done, Atomic.get t.writes_done)

let current_epoch t =
  Mutex.lock t.vlock;
  let e = t.current.v_epoch in
  Mutex.unlock t.vlock;
  e

type mvcc_stats = {
  versions : int;
  pinned : int;
  published_epoch : int;
  floor : int;
}

let mvcc_stats t =
  Mutex.lock t.vlock;
  let s =
    {
      versions = List.length t.versions;
      pinned = List.fold_left (fun acc v -> acc + v.v_pins) 0 t.versions;
      published_epoch = t.current.v_epoch;
      floor = List.fold_left (fun acc v -> min acc v.v_epoch) t.current.v_epoch t.versions;
    }
  in
  Mutex.unlock t.vlock;
  Some s
