open Lxu_seglog
open Lxu_labeling

type engine = LD | LS | STD
type axis = Descendant | Child

type backend = Log of Update_log.t | Store of Interval_store.t

type t = {
  engine : engine;
  mutable backend : backend;
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

let make_backend ~index_attributes ?cache_bytes ~pstore = function
  | LD ->
    Log
      (Update_log.create ~mode:Update_log.Lazy_dynamic ~index_attributes ?cache_bytes
         ~backend:(spec_of_pstore pstore) ())
  | LS ->
    Log
      (Update_log.create ~mode:Update_log.Lazy_static ~index_attributes ?cache_bytes
         ~backend:(spec_of_pstore pstore) ())
  | STD -> Store (Interval_store.create ~index_attributes ())

let storage_from_env () =
  match Sys.getenv_opt "LXU_STORAGE" with
  | Some s when String.lowercase_ascii (String.trim s) = "paged" -> `Paged
  | _ -> `Mem

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

let mode_of_engine = function
  | LD -> Update_log.Lazy_dynamic
  | LS -> Update_log.Lazy_static
  | STD -> invalid_arg "Lazy_db: the STD engine keeps no reconstructible state"

let create ?(engine = LD) ?(index_attributes = false) ?pack_threshold ?domains
    ?(durability = `None) ?cache_bytes ?storage () =
  (match pack_threshold with
  | Some k when k < 1 -> invalid_arg "Lazy_db.create: pack_threshold < 1"
  | _ -> ());
  let storage = match storage with Some s -> s | None -> storage_from_env () in
  if storage = `Paged && engine = STD then
    invalid_arg "Lazy_db.create: paged storage requires a lazy engine (LD or LS)";
  let domains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Lazy_db.create: domains < 1";
      d
    | None -> Option.value (Lxu_util.Domain_pool.env_domains ()) ~default:1
  in
  let durable =
    match durability with
    | `None -> None
    | `Wal dir ->
      if engine = STD then
        invalid_arg "Lazy_db.create: durability requires a lazy engine (LD or LS)";
      Some
        (Lxu_storage.Wal_store.fresh ~dir ~mode:(mode_of_engine engine) ~index_attributes)
  in
  let pstore = match storage with `Mem -> None | `Paged -> Some (fresh_pstore ~durability) in
  { engine; backend = make_backend ~index_attributes ?cache_bytes ~pstore engine; pack_threshold;
    domains; pool = None; durable; pstore; epoch = 0 }

let engine t = t.engine
let domains t = t.domains
let epoch t = t.epoch

let is_snapshot t =
  match t.backend with Log log -> Update_log.is_frozen log | Store _ -> false

let snapshot_guard t who =
  if is_snapshot t then invalid_arg (who ^ ": frozen snapshot, updates go to the live database")

(* Every successful update commits one epoch: the counter bumps, and
   the cache learns the new epoch so this operation's segment
   invalidations retire exactly there — snapshots pinned at or below
   the previous epoch keep their versions.  The WAL record (when
   durability is on) is already written by the caller; epoch numbers
   are session-local and never persisted. *)
let commit_epoch t =
  t.epoch <- t.epoch + 1;
  match t.backend with
  | Log log -> Seg_cache.publish (Update_log.cache log) ~epoch:t.epoch
  | Store _ -> ()

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

(* Forward declaration for the auto-packing hook. *)
let rec insert t ~gp text =
  (match t.backend with
  | Log log -> ignore (Update_log.insert log ~gp text)
  | Store store -> Interval_store.insert store ~gp text);
  log_op t (Lxu_storage.Wal.Insert { gp; text });
  maybe_pack t;
  commit_epoch t

and insert_many t edits =
  match edits with
  | [] -> ()
  | [ (gp, text) ] -> insert t ~gp text
  | _ ->
    (match t.backend with
    | Log log -> ignore (Update_log.insert_batch ?pool:(pool_of t) log edits)
    | Store store ->
      (* STD has no batched path (global relabelling dominates anyway):
         apply one at a time. *)
      List.iter (fun (gp, text) -> Interval_store.insert store ~gp text) edits);
    (* One WAL record group, one flush: the lazy-engine apply above is
       all-or-nothing, so either every record describes an applied edit
       or none was logged. *)
    (match t.durable with
    | None -> ()
    | Some s ->
      Lxu_storage.Wal_store.log_ops s
        (List.map (fun (gp, text) -> Lxu_storage.Wal.Insert { gp; text }) edits));
    maybe_pack t;
    commit_epoch t

and remove t ~gp ~len =
  (match t.backend with
  | Log log -> Update_log.remove log ~gp ~len
  | Store store -> Interval_store.remove store ~gp ~len);
  log_op t (Lxu_storage.Wal.Remove { gp; len });
  maybe_pack t;
  commit_epoch t

(* The paper's "maintenance hours" automated: past the threshold the
   whole database is re-indexed as a single segment. *)
and maybe_pack t =
  match (t.pack_threshold, t.backend) with
  | Some k, Log log when Update_log.segment_count log > k ->
    (* Materialize before creating the fresh log: with paged storage
       the new log's indexes clear the store's previous trees, after
       which the old log's index handles are dead. *)
    let whole = Update_log.materialize log in
    let fresh =
      Update_log.create ~mode:(Update_log.mode log)
        ~index_attributes:(Update_log.indexes_attributes log)
        ~cache_bytes:(Seg_cache.max_bytes (Update_log.cache log))
        ~backend:(spec_of_pstore t.pstore) ()
    in
    if whole <> "" then ignore (Update_log.insert fresh ~gp:0 whole);
    t.backend <- Log fresh
  | _ -> ()

let doc_length t =
  match t.backend with
  | Log log -> Update_log.doc_length log
  | Store store -> Interval_store.doc_length store

let element_count t =
  match t.backend with
  | Log log -> Update_log.element_count log
  | Store store -> Interval_store.element_count store

let segment_count t =
  match t.backend with Log log -> Update_log.segment_count log | Store _ -> 0

let query t ?(axis = Descendant) ?guard ~anc ~desc () =
  match t.backend with
  | Log log ->
    let jaxis = match axis with Descendant -> Lxu_join.Lazy_join.Descendant | Child -> Lxu_join.Lazy_join.Child in
    let pairs, stats = Lxu_join.Lazy_join.run ~axis:jaxis ?pool:(pool_of t) ?guard log ~anc ~desc () in
    let global = Lxu_join.Lazy_join.global_pairs log pairs in
    ( global,
      {
        pair_count = Array.length pairs;
        cross_pairs = stats.Lxu_join.Lazy_join.cross_pairs;
        in_pairs = stats.Lxu_join.Lazy_join.in_pairs;
        segments_skipped = stats.Lxu_join.Lazy_join.segments_skipped;
        elements_scanned = stats.Lxu_join.Lazy_join.elements_fetched;
      } )
  | Store store ->
    let jaxis = match axis with Descendant -> Lxu_join.Stack_tree_desc.Descendant | Child -> Lxu_join.Stack_tree_desc.Child in
    Lxu_util.Deadline.check_opt guard;
    let a = Interval_store.elements store ~tag:anc in
    let d = Interval_store.elements store ~tag:desc in
    let pairs, stats = Lxu_join.Stack_tree_desc.join ~axis:jaxis ~anc:a ~desc:d () in
    let global =
      pairs
      |> List.map (fun ((a : Interval.t), (d : Interval.t)) -> (a.Interval.start, d.Interval.start))
      |> List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2))
    in
    ( global,
      {
        pair_count = List.length global;
        cross_pairs = 0;
        in_pairs = List.length global;
        segments_skipped = 0;
        elements_scanned =
          stats.Lxu_join.Stack_tree_desc.a_scanned + stats.Lxu_join.Stack_tree_desc.d_scanned;
      } )

(* Cardinality without the local->global translation of [query]: the
   join itself produces label pairs; counting needs no conversion. *)
let count t ?(axis = Descendant) ?guard ~anc ~desc () =
  match t.backend with
  | Log log ->
    let jaxis = match axis with Descendant -> Lxu_join.Lazy_join.Descendant | Child -> Lxu_join.Lazy_join.Child in
    let pairs, _ = Lxu_join.Lazy_join.run ~axis:jaxis ?pool:(pool_of t) ?guard log ~anc ~desc () in
    Array.length pairs
  | Store store ->
    let jaxis = match axis with Descendant -> Lxu_join.Stack_tree_desc.Descendant | Child -> Lxu_join.Stack_tree_desc.Child in
    Lxu_util.Deadline.check_opt guard;
    let a = Interval_store.elements store ~tag:anc in
    let d = Interval_store.elements store ~tag:desc in
    let _, stats = Lxu_join.Stack_tree_desc.join ~axis:jaxis ~anc:a ~desc:d () in
    stats.Lxu_join.Stack_tree_desc.pairs

let text t =
  match t.backend with
  | Log log -> Update_log.materialize log
  | Store _ ->
    invalid_arg "Lazy_db.text: the STD engine keeps labels only, not the document text"

let rebuild t =
  snapshot_guard t "Lazy_db.rebuild";
  match t.backend with
  | Store _ -> ()
  | Log log ->
    let whole = Update_log.materialize log in
    let mode = Update_log.mode log in
    let fresh =
      Update_log.create ~mode ~index_attributes:(Update_log.indexes_attributes log)
        ~cache_bytes:(Seg_cache.max_bytes (Update_log.cache log))
        ~backend:(spec_of_pstore t.pstore) ()
    in
    if whole <> "" then ignore (Update_log.insert fresh ~gp:0 whole);
    t.backend <- Log fresh;
    log_op t Lxu_storage.Wal.Rebuild;
    commit_epoch t

let pack_subtree t ~gp ~len =
  snapshot_guard t "Lazy_db.pack_subtree";
  match t.backend with
  | Store _ -> ()
  | Log log ->
    let whole = Update_log.materialize log in
    if gp < 0 || len <= 0 || gp + len > String.length whole then
      invalid_arg "Lazy_db.pack_subtree: range out of bounds";
    let slice = String.sub whole gp len in
    Update_log.remove log ~gp ~len;
    ignore (Update_log.insert log ~gp slice);
    (* One logical record: replay re-executes the pack, keeping the
       recovered segment structure identical.  The remove + insert pair
       above is one logical update, so it commits one epoch: a reader
       pinned below it sees the whole pre-pack state. *)
    log_op t (Lxu_storage.Wal.Pack { gp; len });
    commit_epoch t

let log t = match t.backend with Log log -> Some log | Store _ -> None
let store t = match t.backend with Store s -> Some s | Log _ -> None

(* A snapshot is a full Lazy_db over a frozen clone of the log, pinned
   at the current epoch: queries run the same engines over the same
   shared cache, just with epoch-pinned lookups.  No durability handle
   and no pack threshold — snapshots never write. *)
let snapshot t =
  match t.backend with
  | Store _ ->
    invalid_arg "Lazy_db.snapshot: the STD engine keeps no versioned state (use LD or LS)"
  | Log log ->
    let frozen = Update_log.freeze log ~epoch:t.epoch in
    (* No pstore either: frozen clones keep in-memory indexes (they
       materialize from shared segment skeletons), so snapshot reads
       never touch — or pin — the live database's page store. *)
    { engine = t.engine; backend = Log frozen; pack_threshold = None; domains = t.domains;
      pool = None; durable = None; pstore = None; epoch = t.epoch }

let with_snapshot t f = f (snapshot t)

let cache_stats t =
  match t.backend with
  | Log log -> Some (Seg_cache.stats (Update_log.cache log))
  | Store _ -> None

let size_bytes t =
  match t.backend with
  | Log log -> Update_log.size_bytes log + Element_index.size_bytes (Update_log.element_index log)
  | Store store -> Interval_store.element_count store * 3 * 8

let check t =
  match t.backend with
  | Log log -> Update_log.check log
  | Store store -> Interval_store.check store

let save t path =
  match t.backend with
  | Store _ -> invalid_arg "Lazy_db.save: the STD engine keeps no reconstructible state"
  | Log lg ->
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Update_log.save lg oc)

let resolve_domains ~who domains =
  match domains with
  | Some d ->
    if d < 1 then invalid_arg (who ^ ": domains < 1");
    d
  | None -> Option.value (Lxu_util.Domain_pool.env_domains ()) ~default:1

let of_log ?domains lg =
  let engine =
    match Update_log.mode lg with Update_log.Lazy_dynamic -> LD | Update_log.Lazy_static -> LS
  in
  { engine; backend = Log lg; pack_threshold = None;
    domains = resolve_domains ~who:"Lazy_db.of_log" domains; pool = None; durable = None;
    pstore = None; epoch = 0 }

let checkpoint t =
  match (t.durable, t.backend) with
  | None, _ ->
    invalid_arg "Lazy_db.checkpoint: database has no WAL (create with ~durability:(`Wal dir))"
  | Some _, Store _ -> assert false (* create rejects STD + durability *)
  | Some s, Log log ->
    let page_checkpoint =
      Option.map (fun ps lsn -> Lxu_storage.Page_store.checkpoint ps ~lsn) t.pstore
    in
    Lxu_storage.Wal_store.checkpoint ?page_checkpoint s log

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

let load ?domains ?(durability = `None) ?storage path =
  let storage = match storage with Some s -> s | None -> storage_from_env () in
  let pstore = match storage with `Mem -> None | `Paged -> Some (fresh_pstore ~durability) in
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

let recover ?domains ?storage dir =
  let storage = match storage with Some s -> s | None -> storage_from_env () in
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
