open Lxu_storage_core
open Lxu_seglog

type t = {
  dir : string;
  mutable wal : Wal.t;
  mutable batching : bool;
  mutable closed : bool;
}

let wal_path dir = Filename.concat dir "wal"
let snapshot_path dir = Filename.concat dir "snapshot"
let dir t = t.dir
let next_lsn t = Wal.next_lsn t.wal

let mkdir_p dir =
  let rec make d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  make dir

let fresh ~dir ~mode ~index_attributes =
  mkdir_p dir;
  let snap = snapshot_path dir in
  if Sys.file_exists snap then begin
    Sys.remove snap;
    (* Make the unlink durable before the new WAL exists: a crash
       in between must not resurrect the old snapshot beside a log
       it has nothing to do with. *)
    Sim_file.fsync_dir dir
  end;
  let device = Sim_file.open_path (wal_path dir) in
  let wal = Wal.create ~device { Wal.mode; index_attributes } in
  Sim_file.flush device;
  { dir; wal; batching = false; closed = false }

let check_open t op = if t.closed then invalid_arg ("Wal_store." ^ op ^ ": store is closed")

let commit ?sync t =
  check_open t "commit";
  Wal.commit ?sync t.wal

let log_ops t ops =
  check_open t "log_ops";
  List.iter (fun op -> ignore (Wal.append t.wal op)) ops;
  if not t.batching then Wal.commit t.wal

let batch t f =
  check_open t "batch";
  if t.batching then invalid_arg "Wal_store.batch: already inside a batch";
  t.batching <- true;
  Fun.protect
    ~finally:(fun () ->
      t.batching <- false;
      Wal.commit t.wal)
    f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let wal_bytes t =
  check_open t "wal_bytes";
  Sim_file.size (Wal.device t.wal)

(* Copies [src] to [dst] via the full atomic-rename protocol: a crash
   mid-backup leaves either the previous backup file or the new one,
   never a torn copy. *)
let copy_durable ~src ~dst =
  let data = read_file src in
  let tmp = dst ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp dst;
  Sim_file.fsync_dir (Filename.dirname dst)

let backup t ~dir:dst =
  check_open t "backup";
  if t.batching then invalid_arg "Wal_store.backup: inside a batch";
  if Filename.concat dst "" = Filename.concat t.dir "" then
    invalid_arg "Wal_store.backup: target is the live directory";
  Wal.commit ~sync:true t.wal;
  mkdir_p dst;
  let snap = snapshot_path t.dir in
  if Sys.file_exists snap then copy_durable ~src:snap ~dst:(snapshot_path dst)
  else if Sys.file_exists (snapshot_path dst) then begin
    (* The live dir has no snapshot (never checkpointed): a stale one
       left in the target would change what the backup restores to. *)
    Sys.remove (snapshot_path dst);
    Sim_file.fsync_dir dst
  end;
  copy_durable ~src:(wal_path t.dir) ~dst:(wal_path dst);
  Wal.next_lsn t.wal - 1

(* Rotate the WAL: a fresh header-only file built beside the live one
   and renamed over it, so a crash leaves either the old complete WAL
   or the new empty one — never a half-written header.  The directory
   fsync after the rename is the truncation's durability point: until
   it lands, a power cut may resurrect the old log — which is safe
   only because the snapshot covering it was itself made durable
   (file fsync + rename + dir fsync) before we got here, so the
   resurrected records replay as skipped duplicates.  The ordering
   snapshot-durable-then-truncate is the invariant; the dir fsync here
   closes the last window where the rename itself could be lost. *)
let rotate_wal t ~mode ~index_attributes ~next_lsn =
  let path = wal_path t.dir in
  let tmp = path ^ ".tmp" in
  let old_device = Wal.device t.wal in
  let device = Sim_file.open_path tmp in
  ignore (Wal.create ~next_lsn ~device { Wal.mode; index_attributes } : Wal.t);
  Sim_file.sync device;
  Sys.rename tmp path;
  Sim_file.fsync_dir t.dir;
  Sim_file.close old_device;
  (* The rename moved the inode out from under [device]'s recorded
     path: writes through the open channel would still land in the
     right file, but path-based introspection ([Sim_file.size],
     [durable_contents]) would stat the vanished [tmp].  Reattach at
     the real path. *)
  Sim_file.close device;
  t.wal <- Wal.attach ~device:(Sim_file.open_path ~append:true path) ~next_lsn

let checkpoint ?page_checkpoint t log =
  check_open t "checkpoint";
  if t.batching then invalid_arg "Wal_store.checkpoint: inside a batch";
  Wal.commit t.wal;
  let lsn = Wal.next_lsn t.wal - 1 in
  (* Page store first, snapshot second: recovery attaches paged
     indexes only when the two LSNs agree, so every crash window
     (page meta ahead of the snapshot, or behind it) degrades to the
     sound rebuild path rather than attaching mismatched state. *)
  (match page_checkpoint with Some f -> f lsn | None -> ());
  Recovery.write_snapshot ~path:(snapshot_path t.dir) ~lsn log;
  rotate_wal t ~mode:(Update_log.mode log) ~index_attributes:(Update_log.indexes_attributes log)
    ~next_lsn:(lsn + 1)

(* Shared front half of [recover] and [restore_to]: read snapshot +
   WAL and replay in memory, optionally bounded at [upto_lsn].
   Touches nothing on disk. *)
let replay_dir ?pstore ?upto_lsn ~dir () =
  let snap_path = snapshot_path dir in
  let wpath = wal_path dir in
  let base =
    if Sys.file_exists snap_path then Some (Recovery.read_snapshot ?pstore ~path:snap_path ())
    else None
  in
  let wal_bytes = if Sys.file_exists wpath then Some (read_file wpath) else None in
  match (base, wal_bytes) with
  | None, None -> failwith (Printf.sprintf "%s: nothing to recover (no snapshot, no wal)" dir)
  | base, Some bytes -> (
    (* Replay mutates the base log in place; recovery owns it. *)
    try Recovery.recover_bytes ?pstore ~path:wpath ?base ?upto_lsn bytes
    with Failure msg -> (
        (* Unreadable WAL header.  With a snapshot the state is still
           well-defined: everything up to the checkpoint. *)
        match base with
        | None -> failwith msg
        | Some (lsn, log) ->
          ( log,
            {
              Recovery.snapshot_lsn = lsn;
              records_total = 0;
              records_applied = 0;
              records_skipped = 0;
              valid_bytes = 0;
              total_bytes = String.length bytes;
              corruption = Some msg;
              last_lsn = lsn;
            } )))
  | Some (lsn, log), None ->
    ( log,
      {
        Recovery.snapshot_lsn = lsn;
        records_total = 0;
        records_applied = 0;
        records_skipped = 0;
        valid_bytes = 0;
        total_bytes = 0;
        corruption = None;
        last_lsn = lsn;
      } )

let restore_to ~dir ~lsn =
  if lsn < 0 then invalid_arg "Wal_store.restore_to: negative lsn";
  let log, report = replay_dir ~upto_lsn:lsn ~dir () in
  if report.Recovery.snapshot_lsn > lsn then
    failwith
      (Printf.sprintf
         "%s: cannot restore to lsn %d: the checkpoint snapshot is already at lsn %d \
          (earlier states need a backup taken before that checkpoint)"
         dir lsn report.Recovery.snapshot_lsn);
  (log, report)

let recover ?pstore ~dir () =
  let wpath = wal_path dir in
  let log, report = replay_dir ?pstore ~dir () in
  let next_lsn = report.Recovery.last_lsn + 1 in
  let t = { dir; wal = Wal.attach ~device:(Sim_file.in_memory ()) ~next_lsn; batching = false; closed = false } in
  let mode = Update_log.mode log and index_attributes = Update_log.indexes_attributes log in
  (if report.Recovery.valid_bytes = 0 then
     (* Missing or headerless WAL: start a clean one. *)
     let device = Sim_file.open_path wpath in
     t.wal <- Wal.create ~next_lsn ~device { Wal.mode; index_attributes }
   else begin
     if report.Recovery.valid_bytes < report.Recovery.total_bytes then begin
       (* Repair the torn/corrupt tail so future appends extend a
          fully valid log. *)
       let d = Sim_file.open_path ~append:true wpath in
       Sim_file.truncate_to d report.Recovery.valid_bytes;
       Sim_file.close d
     end;
     t.wal <- Wal.attach ~device:(Sim_file.open_path ~append:true wpath) ~next_lsn
   end);
  (log, t, report)

let close t =
  if not t.closed then begin
    Wal.commit t.wal;
    Sim_file.close (Wal.device t.wal);
    t.closed <- true
  end
