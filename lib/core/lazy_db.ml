open Lxu_seglog

type engine = LD | LS

type t = {
  mutable log : Update_log.t;  (* its mode is the engine *)
  durable : Lxu_storage.Wal_store.t option;  (* WAL home, when durability is on *)
  pstore : Lxu_storage.Page_store.t option;  (* page store, when storage is paged *)
  mutable epoch : int;  (* committed update operations so far — the MVCC version number *)
  mutable closed : bool;  (* set by [close]: every later write is refused *)
}

(* The page store of a paged database: a [pages] file beside the WAL
   when there is a durability directory, an in-memory device
   otherwise.  The file is scratch (the snapshot and the WAL are the
   durable state, and every paged index is rebuilt from them), so it
   is truncated whenever a database opens it. *)
let pstore_for storage dir =
  match storage with
  | `Mem -> None
  | `Paged ->
    let device =
      match dir with
      | None -> Lxu_storage.Sim_file.in_memory ()
      | Some dir -> Lxu_storage.Sim_file.open_path (Filename.concat dir "pages")
    in
    Some (Lxu_storage.Page_store.create ~device ())

let mode_of_engine = function LD -> Update_log.Lazy_dynamic | LS -> Update_log.Lazy_static

let create ?(engine = LD) ?(index_attributes = false) ?domains:_ ?(durability = `None)
    ?cache_bytes:_ ?(storage = `Mem) () =
  let mode = mode_of_engine engine in
  let durable =
    match durability with
    | `None -> None
    | `Wal dir -> Some (Lxu_storage.Wal_store.fresh ~dir ~mode ~index_attributes)
  in
  let pstore = pstore_for storage (Option.map Lxu_storage.Wal_store.dir durable) in
  let log = Update_log.create ~mode ~index_attributes ?pstore () in
  { log; durable; pstore; epoch = 0; closed = false }

let engine t =
  match Update_log.mode t.log with Update_log.Lazy_dynamic -> LD | Update_log.Lazy_static -> LS

let epoch t = t.epoch
let is_snapshot t = Update_log.is_frozen t.log

let snapshot_guard t who =
  if is_snapshot t then invalid_arg (who ^ ": frozen snapshot, updates go to the live database")

(* The one write path: every update is a list of WAL ops applied by
   [Recovery.replay], the function recovery replays them with, so a
   live write and its replay cannot diverge.  A refused op changes
   nothing ([replay] validates a run before it mutates), and the WAL
   records ops only after the apply accepted them, so the log always
   replays cleanly; a crash between apply and commit loses at most the
   uncommitted tail; a WAL write that raises fails the store, which
   refuses every later write before it applies.  Each write commits
   one epoch, the MVCC version {!Shared_db} publishes under
   (session-local, never persisted). *)
let write ~who t ops =
  snapshot_guard t who;
  if t.closed then invalid_arg (who ^ ": database is closed");
  Option.iter (Lxu_storage.Wal_store.check_writable ~who) t.durable;
  t.log <- Lxu_storage.Recovery.replay ?pstore:t.pstore t.log ops;
  (match t.durable with None -> () | Some s -> Lxu_storage.Wal_store.log_ops s ops);
  t.epoch <- t.epoch + 1

let insert t ~gp text = write ~who:"Lazy_db.insert" t [ Lxu_storage.Wal.Insert { gp; text } ]

(* One WAL record group, one flush: the batch is all-or-nothing, so
   either every record describes an applied edit or none was logged. *)
let insert_many t edits =
  if edits <> [] then
    write ~who:"Lazy_db.insert_many" t
      (List.map (fun (gp, text) -> Lxu_storage.Wal.Insert { gp; text }) edits)

let remove t ~gp ~len = write ~who:"Lazy_db.remove" t [ Lxu_storage.Wal.Remove { gp; len } ]

let doc_length t = Update_log.doc_length t.log
let element_count t = Update_log.element_count t.log
let segment_count t = Update_log.segment_count t.log

(* The join hands back translated, sorted columns; the list is built
   only here, at the API edge. *)
let query t ?axis ?guard ~anc ~desc () =
  let (ga, gd), stats = Lxu_join.Lazy_join.query ?axis ?guard t.log ~anc ~desc () in
  let acc = ref [] in
  for i = Array.length ga - 1 downto 0 do
    acc := (Array.unsafe_get ga i, Array.unsafe_get gd i) :: !acc
  done;
  (!acc, stats)

(* Cardinality without the local->global translation of [query]: the
   join's counting kernel only adds up its stats. *)
let count t ?axis ?guard ~anc ~desc () = Lxu_join.Lazy_join.count ?axis ?guard t.log ~anc ~desc ()

let text t = Update_log.materialize t.log

let rebuild t = write ~who:"Lazy_db.rebuild" t [ Lxu_storage.Wal.Rebuild ]

(* One logical record: replay re-executes the pack, keeping the
   recovered segment structure identical.  Its remove + insert pair is
   one logical update, so it commits one epoch: a reader pinned below
   it sees the whole pre-pack state. *)
let pack_subtree t ~gp ~len =
  write ~who:"Lazy_db.pack_subtree" t [ Lxu_storage.Wal.Pack { gp; len } ]

let log t = Some t.log

(* A snapshot is a full Lazy_db over a frozen clone of the log, pinned
   at the current epoch: queries run the same engines over the shared
   segment columns.  No durability handle — snapshots never write.
   No pstore either: frozen clones keep an in-memory SB-tree, so
   snapshot reads never touch — or pin — the live database's page
   store. *)
let snapshot t =
  { log = Update_log.freeze t.log; durable = None; pstore = None; epoch = t.epoch; closed = false }

let cache_stats _ = None
let size_bytes t = Update_log.size_bytes t.log

let check t = Update_log.check t.log

let save t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Update_log.save t.log oc)

let of_log lg = { log = lg; durable = None; pstore = None; epoch = 0; closed = false }

let checkpoint t =
  match t.durable with
  | None ->
    invalid_arg "Lazy_db.checkpoint: database has no WAL (create with ~durability:(`Wal dir))"
  | Some s -> Lxu_storage.Wal_store.checkpoint s t.log

(* A batch whose commit fails logged none of its writes: their epochs
   are taken back. *)
let batch t f =
  match t.durable with
  | None -> f ()
  | Some s -> (
    let before = t.epoch in
    try Lxu_storage.Wal_store.batch s f
    with e when Lxu_storage.Wal_store.failed s ->
      t.epoch <- before;
      raise e)

let wal_dir t = Option.map Lxu_storage.Wal_store.dir t.durable
let wal_bytes t = Option.map Lxu_storage.Wal_store.wal_bytes t.durable
let wal_device t = Option.map Lxu_storage.Wal_store.device t.durable
let wal_failed t = Option.fold ~none:false ~some:Lxu_storage.Wal_store.failed t.durable

let backup t ~dir =
  match t.durable with
  | None ->
    invalid_arg "Lazy_db.backup: database has no WAL (create with ~durability:(`Wal dir))"
  | Some s -> Lxu_storage.Wal_store.backup s ~dir

let storage_kind t = match t.pstore with None -> `Mem | Some _ -> `Paged
let page_stats t = Option.map Lxu_storage.Page_store.stats t.pstore

let close t =
  t.closed <- true;
  (match t.durable with None -> () | Some s -> Lxu_storage.Wal_store.close s);
  match t.pstore with None -> () | Some ps -> Lxu_storage.Page_store.close ps

let load ?domains:_ ?(storage = `Mem) path =
  let pstore = pstore_for storage None in
  let ic = open_in_bin path in
  let lg =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* Re-raise snapshot errors with the offending file: the
           messages carry the byte offset, this adds which file. *)
        try Update_log.load ?pstore ic
        with Failure msg -> failwith (Printf.sprintf "Lazy_db.load: %s: %s" path msg))
  in
  { (of_log lg) with pstore }

(* The pages file is opened only once [dir] is known to hold a state,
   and a failed recovery closes it and deletes it if this call made
   it: a refused [dir] is left as it was found. *)
let recover ?domains:_ ?(storage = `Mem) dir =
  Lxu_storage.Wal_store.check_recoverable ~dir;
  let pages = Filename.concat dir "pages" in
  let made = not (Sys.file_exists pages) in
  let pstore = pstore_for storage (Some dir) in
  match Lxu_storage.Wal_store.recover ?pstore ~dir () with
  | lg, store, report -> ({ (of_log lg) with durable = Some store; pstore }, report)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Option.iter
      (fun ps ->
        Lxu_storage.Page_store.close ps;
        if made then Sys.remove pages)
      pstore;
    Printexc.raise_with_backtrace e bt

let restore_to ~lsn dir =
  let lg, report = Lxu_storage.Wal_store.restore_to ~dir ~lsn in
  (* Deliberately no durability handle: the restored state is a point
     in the middle of [dir]'s history — appending to its WAL would
     fork it with non-monotonic LSNs.  Persist via [save]/[load]. *)
  (of_log lg, report)
