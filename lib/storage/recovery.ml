open Lxu_storage_core
open Lxu_seglog

type report = {
  snapshot_lsn : int;
  records_total : int;
  records_applied : int;
  records_skipped : int;
  valid_bytes : int;
  total_bytes : int;
  corruption : string option;
  last_lsn : int;
}

(* --- checkpoint snapshots -------------------------------------------- *)

let snapshot_magic = "LXUCKPT1"

(* The full atomic-rename protocol: write to a temp file, fsync it,
   rename over the target, fsync the directory.  Without the file
   fsync the rename can land before the data; without the directory
   fsync the rename itself can be lost — either way a crash could
   leave a snapshot that claims LSN [lsn] but does not hold it, and a
   later WAL truncation would then destroy the only copy of those
   records. *)
let write_snapshot ~path ~lsn log =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Printf.fprintf oc "%s lsn %d\n" snapshot_magic lsn;
     Update_log.save log oc;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  Sim_file.fsync_dir (Filename.dirname path)

(* With a page store at hand, the snapshot's indexes may live there
   already: attach when the store's durable checkpoint carries exactly
   this snapshot's LSN, otherwise rebuild into the store from scratch
   (the crash fell between the page checkpoint and the snapshot
   rename, or vice versa — either way the WAL replays the difference
   on top of a consistent base). *)
let backend_for ?pstore lsn =
  match pstore with
  | None -> Lxu_btree.Storage_backend.Mem
  | Some ps ->
    Lxu_btree.Storage_backend.Paged
      { store = ps; attach = Page_store.checkpoint_lsn ps = lsn }

let read_snapshot ?pstore ~path () =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail msg = failwith (Printf.sprintf "%s: %s (at byte %d)" path msg (pos_in ic)) in
      let first = try input_line ic with End_of_file -> fail "truncated checkpoint header" in
      let lsn =
        try Scanf.sscanf first "LXUCKPT1 lsn %d%!" Fun.id
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "not a lazyxml checkpoint"
      in
      if lsn < 0 then fail "negative checkpoint lsn";
      (* Update_log.load's messages already carry the byte offset. *)
      let log =
        try Update_log.load ~backend:(backend_for ?pstore lsn) ic
        with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)
      in
      (lsn, log))

(* --- replay ----------------------------------------------------------- *)

let replay ?pstore log (op : Wal.op) =
  match op with
  | Wal.Insert { gp; text } ->
    ignore (Update_log.insert log ~gp text);
    log
  | Wal.Remove { gp; len } ->
    Update_log.remove log ~gp ~len;
    log
  | Wal.Pack { gp; len } ->
    (* Mirrors Lazy_db.pack_subtree: re-index the byte range as one
       segment. *)
    let whole = Update_log.materialize log in
    if gp < 0 || len <= 0 || gp + len > String.length whole then
      invalid_arg "Recovery.replay: pack range out of bounds";
    let slice = String.sub whole gp len in
    Update_log.remove log ~gp ~len;
    ignore (Update_log.insert log ~gp slice);
    log
  | Wal.Rebuild ->
    let whole = Update_log.materialize log in
    let backend =
      match pstore with
      | None -> Lxu_btree.Storage_backend.Mem
      | Some ps -> Lxu_btree.Storage_backend.Paged { store = ps; attach = false }
    in
    let fresh =
      Update_log.create ~mode:(Update_log.mode log)
        ~index_attributes:(Update_log.indexes_attributes log) ~backend ()
    in
    if whole <> "" then ignore (Update_log.insert fresh ~gp:0 whole);
    fresh

let recover_bytes ?pstore ?path ?base ?(upto_lsn = max_int) wal_bytes =
  let scan = Wal.scan ?path wal_bytes in
  let snapshot_lsn, log0 =
    match base with
    | Some (lsn, log) -> (lsn, log)
    | None ->
      let backend =
        match pstore with
        | None -> Lxu_btree.Storage_backend.Mem
        | Some ps -> Lxu_btree.Storage_backend.Paged { store = ps; attach = false }
      in
      ( 0,
        Update_log.create ~mode:scan.Wal.header.Wal.mode
          ~index_attributes:scan.Wal.header.Wal.index_attributes ~backend () )
  in
  let log = ref log0 in
  let applied = ref 0 and skipped = ref 0 in
  let valid = ref scan.Wal.valid_bytes and note = ref scan.Wal.corruption in
  let last_lsn = ref snapshot_lsn in
  (* End offset of the last record kept; replay failure truncates to it. *)
  let prev_end = ref Wal.header_bytes in
  let kept (r : Wal.record) =
    incr applied;
    last_lsn := r.Wal.lsn;
    prev_end := r.Wal.end_off
  in
  (* A record that passes the checksum but cannot replay is corruption
     all the same: keep everything before it. *)
  let failed (r : Wal.record) e =
    note := Some (Printf.sprintf "replay of lsn %d failed: %s" r.Wal.lsn (Printexc.to_string e));
    valid := !prev_end;
    raise Exit
  in
  let replay_one (r : Wal.record) =
    match replay ?pstore !log r.Wal.op with
    | l ->
      log := l;
      kept r
    | exception e -> failed r e
  in
  (* A maximal run of consecutive inserts replays as one
     [Update_log.insert_batch]: one SB-tree batch and one tag-list
     merge instead of one of each per record, with the same resulting
     log.  The batch validates every edit before it mutates anything,
     so when it refuses the run the log is untouched and the run
     replays record by record, which pins the failure on the exact
     LSN.  Anything else raised mid-batch (a storage fault) is charged
     to the run's first record, which keeps only the records before
     the run. *)
  let flush_run = function
    | [] -> ()
    | [ (r, _) ] -> replay_one r
    | run -> (
      let records, edits = List.split (List.rev run) in
      match Update_log.insert_batch !log edits with
      | _ -> List.iter kept records
      | exception (Invalid_argument _ | Lxu_xml.Parser.Parse_error _) ->
        List.iter replay_one records
      | exception e -> failed (List.hd records) e)
  in
  (try
     let run =
       List.fold_left
         (fun run (r : Wal.record) ->
           if r.Wal.lsn <= snapshot_lsn then begin
             incr skipped;
             prev_end := r.Wal.end_off;
             run
           end
           else if r.Wal.lsn > upto_lsn then begin
             (* Point-in-time restore: the record is valid but beyond
                the requested LSN.  Not corruption — just history the
                caller does not want. *)
             flush_run run;
             incr skipped;
             []
           end
           else
             match r.Wal.op with
             | Wal.Insert { gp; text } -> (r, (gp, text)) :: run
             | _ ->
               flush_run run;
               replay_one r;
               [])
         [] scan.Wal.records
     in
     flush_run run
   with Exit -> ());
  ( !log,
    {
      snapshot_lsn;
      records_total = List.length scan.Wal.records;
      records_applied = !applied;
      records_skipped = !skipped;
      valid_bytes = !valid;
      total_bytes = scan.Wal.total_bytes;
      corruption = !note;
      last_lsn = !last_lsn;
    } )
