open Lxu_seglog

type engine = LD | LS
type axis = Descendant | Child

type t = {
  mutable log : Update_log.t;  (* its mode is the engine *)
  pack_threshold : int option;
  domains : int;
  mutable pool : Lxu_util.Domain_pool.t option;  (* created on first parallel query *)
  mutable durable : Lxu_storage.Wal_store.t option;  (* WAL home, when durability is on *)
  mutable pstore : Lxu_storage.Page_store.t option;  (* page store, when storage is paged *)
  mutable epoch : int;  (* committed update operations so far — the MVCC version number *)
}

type query_stats = {
  pair_count : int;
  cross_pairs : int;
  in_pairs : int;
  segments_skipped : int;
  elements_scanned : int;
}

(* A paged index backend never re-attaches durable trees outside
   recovery: every fresh log built here (create, load, pack, rebuild)
   clears the store's previous trees and re-indexes into new pages. *)
let spec_of_pstore = function
  | None -> Lxu_btree.Storage_backend.Mem
  | Some ps -> Lxu_btree.Storage_backend.Paged { store = ps; attach = false }

let resolve_domains ~who domains =
  match domains with
  | Some d ->
    if d < 1 then invalid_arg (who ^ ": domains < 1");
    d
  | None -> Option.value (Lxu_util.Domain_pool.env_domains ()) ~default:1

let pages_path dir = Filename.concat dir "pages"

let mkdir_p dir =
  let rec make d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  make dir

(* The page device: a real file beside the WAL when the database is
   durable (so pages survive restarts and recovery can re-attach), an
   in-memory device otherwise (paged still bounds index RAM by the
   pool budget — the beyond-RAM discipline without persistence). *)
let fresh_pstore ~durability =
  let device =
    match durability with
    | `None -> Lxu_storage.Sim_file.in_memory ()
    | `Wal dir ->
      mkdir_p dir;
      Lxu_storage.Sim_file.open_path (pages_path dir)
  in
  Lxu_storage.Page_store.create ~device ()

let mode_of_engine = function LD -> Update_log.Lazy_dynamic | LS -> Update_log.Lazy_static

let create ?(engine = LD) ?(index_attributes = false) ?pack_threshold ?domains
    ?(durability = `None) ?cache_bytes:_ ?(storage = `Mem) () =
  (match pack_threshold with
  | Some k when k < 1 -> invalid_arg "Lazy_db.create: pack_threshold < 1"
  | _ -> ());
  let domains = resolve_domains ~who:"Lazy_db.create" domains in
  let mode = mode_of_engine engine in
  let durable =
    match durability with
    | `None -> None
    | `Wal dir -> Some (Lxu_storage.Wal_store.fresh ~dir ~mode ~index_attributes)
  in
  let pstore = match storage with `Mem -> None | `Paged -> Some (fresh_pstore ~durability) in
  let log =
    Update_log.create ~mode ~index_attributes ~backend:(spec_of_pstore pstore) ()
  in
  { log; pack_threshold; domains; pool = None; durable; pstore; epoch = 0 }

let engine t =
  match Update_log.mode t.log with Update_log.Lazy_dynamic -> LD | Update_log.Lazy_static -> LS

let domains t = t.domains
let epoch t = t.epoch
let is_snapshot t = Update_log.is_frozen t.log

let snapshot_guard t who =
  if is_snapshot t then invalid_arg (who ^ ": frozen snapshot, updates go to the live database")

(* Every successful update commits one epoch: the MVCC version number
   {!Shared_db} publishes snapshots under.  The WAL record (when
   durability is on) is already written by the caller; epoch numbers
   are session-local and never persisted. *)
let commit_epoch t = t.epoch <- t.epoch + 1

(* Parallel queries draw on the process-wide shared pool for their
   domain count: databases are cheap and numerous, domains are neither
   (OCaml caps them at 128), so per-database pools would not fly. *)
let pool_of t =
  if t.domains <= 1 then None
  else
    match t.pool with
    | Some _ as p -> p
    | None ->
      let p = Lxu_util.Domain_pool.shared ~size:t.domains in
      t.pool <- Some p;
      Some p

let query_pool = pool_of

(* The WAL records an operation only after the in-memory apply
   validates it (bounds, well-formedness): the log must replay
   cleanly, so it never holds a record for an update that was
   rejected.  A crash between apply and commit loses at most the
   uncommitted tail — indistinguishable from crashing just before
   those updates. *)
let log_op t op =
  match t.durable with None -> () | Some s -> Lxu_storage.Wal_store.log_op s op

(* Re-indexes the whole document as a single segment in a fresh log
   with the same mode and attribute flag.  Materialize
   before creating the fresh log: with paged storage the new log's
   indexes clear the store's previous trees, after which the old log's
   index handles are dead. *)
let repack t =
  let log = t.log in
  let whole = Update_log.materialize log in
  let fresh =
    Update_log.create ~mode:(Update_log.mode log)
      ~index_attributes:(Update_log.indexes_attributes log)
      ~backend:(spec_of_pstore t.pstore) ()
  in
  if whole <> "" then ignore (Update_log.insert fresh ~gp:0 whole);
  t.log <- fresh

(* The paper's "maintenance hours" automated: past the threshold the
   whole database is re-indexed as a single segment. *)
let maybe_pack t =
  match t.pack_threshold with
  | Some k when Update_log.segment_count t.log > k -> repack t
  | _ -> ()

let insert t ~gp text =
  ignore (Update_log.insert t.log ~gp text);
  log_op t (Lxu_storage.Wal.Insert { gp; text });
  maybe_pack t;
  commit_epoch t

let insert_many t edits =
  match edits with
  | [] -> ()
  | [ (gp, text) ] -> insert t ~gp text
  | _ ->
    ignore (Update_log.insert_batch ?pool:(pool_of t) t.log edits);
    (* One WAL record group, one flush: the apply above is
       all-or-nothing, so either every record describes an applied
       edit or none was logged. *)
    (match t.durable with
    | None -> ()
    | Some s ->
      Lxu_storage.Wal_store.log_ops s
        (List.map (fun (gp, text) -> Lxu_storage.Wal.Insert { gp; text }) edits));
    maybe_pack t;
    commit_epoch t

let remove t ~gp ~len =
  Update_log.remove t.log ~gp ~len;
  log_op t (Lxu_storage.Wal.Remove { gp; len });
  maybe_pack t;
  commit_epoch t

let doc_length t = Update_log.doc_length t.log
let element_count t = Update_log.element_count t.log
let segment_count t = Update_log.segment_count t.log

let join_axis = function
  | Descendant -> Lxu_join.Lazy_join.Descendant
  | Child -> Lxu_join.Lazy_join.Child

let query t ?(axis = Descendant) ?guard ~anc ~desc () =
  let pairs, stats =
    Lxu_join.Lazy_join.run ~axis:(join_axis axis) ?pool:(pool_of t) ?guard t.log ~anc ~desc ()
  in
  let global = Lxu_join.Lazy_join.global_pairs t.log pairs in
  ( global,
    {
      pair_count = Array.length pairs;
      cross_pairs = stats.Lxu_join.Lazy_join.cross_pairs;
      in_pairs = stats.Lxu_join.Lazy_join.in_pairs;
      segments_skipped = stats.Lxu_join.Lazy_join.segments_skipped;
      elements_scanned = stats.Lxu_join.Lazy_join.elements_fetched;
    } )

(* Cardinality without the local->global translation of [query]: the
   join itself produces label pairs; counting needs no conversion. *)
let count t ?(axis = Descendant) ?guard ~anc ~desc () =
  let pairs, _ =
    Lxu_join.Lazy_join.run ~axis:(join_axis axis) ?pool:(pool_of t) ?guard t.log ~anc ~desc ()
  in
  Array.length pairs

let text t = Update_log.materialize t.log

let rebuild t =
  snapshot_guard t "Lazy_db.rebuild";
  repack t;
  log_op t Lxu_storage.Wal.Rebuild;
  commit_epoch t

let pack_subtree t ~gp ~len =
  snapshot_guard t "Lazy_db.pack_subtree";
  let whole = Update_log.materialize t.log in
  if gp < 0 || len <= 0 || gp + len > String.length whole then
    invalid_arg "Lazy_db.pack_subtree: range out of bounds";
  let slice = String.sub whole gp len in
  Update_log.remove t.log ~gp ~len;
  ignore (Update_log.insert t.log ~gp slice);
  (* One logical record: replay re-executes the pack, keeping the
     recovered segment structure identical.  The remove + insert pair
     above is one logical update, so it commits one epoch: a reader
     pinned below it sees the whole pre-pack state. *)
  log_op t (Lxu_storage.Wal.Pack { gp; len });
  commit_epoch t

let log t = Some t.log

(* A snapshot is a full Lazy_db over a frozen clone of the log, pinned
   at the current epoch: queries run the same engines over the shared
   segment columns.  No durability handle and no pack threshold —
   snapshots never write.  No pstore either: frozen clones keep an
   in-memory SB-tree, so snapshot reads never touch — or pin — the
   live database's page store. *)
let snapshot t =
  { log = Update_log.freeze t.log; pack_threshold = None; domains = t.domains;
    pool = None; durable = None; pstore = None; epoch = t.epoch }

let with_snapshot t f = f (snapshot t)
let cache_stats _ = None
let size_bytes t = Update_log.size_bytes t.log

let check t = Update_log.check t.log

let save t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Update_log.save t.log oc)

let of_log ?domains lg =
  { log = lg; pack_threshold = None; domains = resolve_domains ~who:"Lazy_db.of_log" domains;
    pool = None; durable = None; pstore = None; epoch = 0 }

let checkpoint t =
  match t.durable with
  | None ->
    invalid_arg "Lazy_db.checkpoint: database has no WAL (create with ~durability:(`Wal dir))"
  | Some s ->
    let page_checkpoint =
      Option.map (fun ps lsn -> Lxu_storage.Page_store.checkpoint ps ~lsn) t.pstore
    in
    Lxu_storage.Wal_store.checkpoint ?page_checkpoint s t.log

let batch t f =
  match t.durable with None -> f () | Some s -> Lxu_storage.Wal_store.batch s f

let wal_dir t = Option.map Lxu_storage.Wal_store.dir t.durable
let wal_bytes t = Option.map Lxu_storage.Wal_store.wal_bytes t.durable

let backup t ~dir =
  match t.durable with
  | None ->
    invalid_arg "Lazy_db.backup: database has no WAL (create with ~durability:(`Wal dir))"
  | Some s -> Lxu_storage.Wal_store.backup s ~dir

let storage_kind t = match t.pstore with None -> `Mem | Some _ -> `Paged
let page_store t = t.pstore
let page_stats t = Option.map Lxu_storage.Page_store.stats t.pstore

let close t =
  (match t.durable with None -> () | Some s -> Lxu_storage.Wal_store.close s);
  match t.pstore with None -> () | Some ps -> Lxu_storage.Page_store.close ps

let load ?domains ?(durability = `None) ?(storage = `Mem) path =
  let pstore =
    match storage with `Mem -> None | `Paged -> Some (fresh_pstore ~durability)
  in
  let ic = open_in_bin path in
  let lg =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* Re-raise snapshot errors with the offending file: the
           messages carry the byte offset, this adds which file. *)
        try Update_log.load ~backend:(spec_of_pstore pstore) ic
        with Failure msg -> failwith (Printf.sprintf "Lazy_db.load: %s: %s" path msg))
  in
  let t = of_log ?domains lg in
  t.pstore <- pstore;
  (match durability with
  | `None -> ()
  | `Wal dir ->
    let s =
      Lxu_storage.Wal_store.fresh ~dir ~mode:(Update_log.mode lg)
        ~index_attributes:(Update_log.indexes_attributes lg)
    in
    t.durable <- Some s;
    (* The WAL dir starts from this snapshot, not from empty: write
       the base checkpoint immediately (page store included) so
       recovery has it. *)
    checkpoint t);
  t

let recover ?domains ?(storage = `Mem) dir =
  let pstore =
    match storage with
    | `Mem -> None
    | `Paged ->
      let device = Lxu_storage.Sim_file.open_path ~append:true (pages_path dir) in
      let ps =
        try Lxu_storage.Page_store.open_existing ~device ()
        with Failure _ | Lxu_storage.Page_file.Torn_page _ ->
          (* Missing, torn or unreadable pages file.  The snapshot +
             WAL can rebuild every index, so start the store over —
             truncating first so no stale meta page can win a future
             open. *)
          Lxu_storage.Sim_file.truncate_to device 0;
          Lxu_storage.Page_store.create ~device ()
      in
      Some ps
  in
  let lg, store, report = Lxu_storage.Wal_store.recover ?pstore ~dir () in
  let t = of_log ?domains lg in
  t.durable <- Some store;
  t.pstore <- pstore;
  (t, report)

let restore_to ?domains ~lsn dir =
  let lg, report = Lxu_storage.Wal_store.restore_to ~dir ~lsn in
  (* Deliberately no durability handle: the restored state is a point
     in the middle of [dir]'s history — appending to its WAL would
     fork it with non-monotonic LSNs.  Persist via [save]/[load]. *)
  (of_log ?domains lg, report)
