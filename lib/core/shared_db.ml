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

let wrap db =
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

let create ?index_attributes ?durability () = wrap (Lazy_db.create ?index_attributes ?durability ())

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

   The writer then empties the minor heap.  A freeze shares the old
   version instead of cloning it, so a write allocates too little to
   set off collections of its own; without this, the first read to set
   one off paid for promoting everything young the writes and earlier
   reads had left (the new version's copies, and pair records still
   referenced from major-heap result arrays).  On churn_durable that
   read was the median path query: path p50 4.1 ms, against 2.1 ms
   with the collection here and 2.7 ms at the cloning parent, while
   update p50 stays at 0.43 ms against the parent's 2.4 ms
   (EXPERIMENTS.md, "publish without a clone"). *)
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

let recover dir =
  let db, report = Lazy_db.recover dir in
  if Lazy_db.engine db = Lazy_db.LS then
    invalid_arg "Shared_db.recover: LS queries mutate the log; use LD";
  (wrap db, report)

let insert t ~gp text = write t (fun db -> Lazy_db.insert db ~gp text)
let insert_many t edits = write t (fun db -> Lazy_db.insert_many db edits)
let remove t ~gp ~len = write t (fun db -> Lazy_db.remove db ~gp ~len)

(* WAL appends happen inside Lazy_db's update path, so they are
   already serialized under the writer lock; checkpoint takes the same
   lock to snapshot a quiescent log.  Neither commits an epoch, so no
   new version is published. *)
let checkpoint t = write t Lazy_db.checkpoint
let close t = write t Lazy_db.close
let count t ?axis ~anc ~desc () = read t (fun db -> Lazy_db.count db ?axis ~anc ~desc ())
let path_count t path = read t (fun db -> Path_query.count db path)

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
