open Lxu_storage_core
open Lxu_seglog

type t = {
  dir : string;
  mutable wal : Wal.t;
  mutable batching : bool;
  mutable closed : bool;
  mutable failed : string option;  (* why a WAL write raised, once one has *)
}

let wal_path dir = Filename.concat dir "wal"
let snapshot_path dir = Filename.concat dir "snapshot"
let dir t = t.dir
let device t = Wal.device t.wal
let failed t = t.failed <> None
let make dir wal = { dir; wal; batching = false; closed = false; failed = None }

let header_of log =
  { Wal.mode = Update_log.mode log; index_attributes = Update_log.indexes_attributes log }

let fresh ~dir ~mode ~index_attributes =
  Sim_file.mkdir_p dir;
  (* The unlink is durable before the new WAL exists: a crash in
     between must not resurrect the old snapshot beside a log it has
     nothing to do with. *)
  Sim_file.remove_durable (snapshot_path dir);
  let device = Sim_file.open_path (wal_path dir) in
  let wal = Wal.create ~device { Wal.mode; index_attributes } in
  make dir wal

(* A WAL write that raises leaves its group unwritten (still buffered:
   [Wal.commit] keeps it) while the caller's state already holds it.
   From then on the store refuses every write, checkpoint and backup,
   and [close] drops the group: only [recover] continues from the
   directory, at the last committed LSN. *)
let failing t f =
  try f ()
  with e ->
    t.failed <- Some (Printexc.to_string e);
    raise e

let check_writable ~who t =
  match t.failed with
  | None -> ()
  | Some why ->
    failwith (Printf.sprintf "%s: a WAL write failed (%s); reopen %s with recover" who why t.dir)

let check_open t op =
  if t.closed then invalid_arg ("Wal_store." ^ op ^ ": store is closed");
  check_writable ~who:("Wal_store." ^ op) t

let log_ops t ops =
  check_open t "log_ops";
  List.iter (fun op -> ignore (Wal.append t.wal op)) ops;
  if not t.batching then failing t (fun () -> Wal.commit t.wal)

let batch t f =
  check_open t "batch";
  if t.batching then invalid_arg "Wal_store.batch: already inside a batch";
  t.batching <- true;
  Fun.protect
    ~finally:(fun () ->
      t.batching <- false;
      failing t (fun () -> Wal.commit t.wal))
    f

let wal_bytes t =
  check_open t "wal_bytes";
  Sim_file.size (Wal.device t.wal)

let copy_durable ~src ~dst =
  let data = Sim_file.read_file src in
  Sim_file.replace dst (fun oc -> output_string oc data)

let backup t ~dir:dst =
  check_open t "backup";
  if t.batching then invalid_arg "Wal_store.backup: inside a batch";
  if Filename.concat dst "" = Filename.concat t.dir "" then
    invalid_arg "Wal_store.backup: target is the live directory";
  failing t (fun () -> Wal.commit ~sync:true t.wal);
  Sim_file.mkdir_p dst;
  let snap = snapshot_path t.dir in
  if Sys.file_exists snap then copy_durable ~src:snap ~dst:(snapshot_path dst)
  else
    (* The live dir has no snapshot (never checkpointed): a stale one
       left in the target would change what the backup restores to. *)
    Sim_file.remove_durable (snapshot_path dst);
  copy_durable ~src:(wal_path t.dir) ~dst:(wal_path dst);
  Wal.next_lsn t.wal - 1

(* Rotate the WAL: a fresh header-only file replaces the live one, so a
   crash leaves either the old complete WAL or the new empty one —
   never a half-written header.  The replace's directory fsync is the
   truncation's durability point: until it lands, a power cut may
   resurrect the old log — which is safe only because the snapshot
   covering it was itself made durable before we got here, so the
   resurrected records replay as skipped duplicates.  The ordering
   snapshot-durable-then-truncate is the invariant.  The new file is
   then opened at its real path for appending. *)
let rotate_wal t ~header ~next_lsn =
  let path = wal_path t.dir in
  Sim_file.replace path (fun oc -> output_string oc (Wal.encode_header header));
  Sim_file.close (Wal.device t.wal);
  t.wal <- Wal.attach ~device:(Sim_file.open_path ~append:true path) ~next_lsn

let checkpoint t log =
  check_open t "checkpoint";
  if t.batching then invalid_arg "Wal_store.checkpoint: inside a batch";
  failing t (fun () -> Wal.commit t.wal);
  let lsn = Wal.next_lsn t.wal - 1 in
  Recovery.write_snapshot ~path:(snapshot_path t.dir) ~lsn log;
  rotate_wal t ~header:(header_of log) ~next_lsn:(lsn + 1)

let nothing_to_recover dir =
  failwith (Printf.sprintf "%s: nothing to recover (no snapshot, no wal)" dir)

let check_recoverable ~dir =
  if not (Sys.file_exists (snapshot_path dir) || Sys.file_exists (wal_path dir)) then
    nothing_to_recover dir

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
  let wal_bytes = if Sys.file_exists wpath then Some (Sim_file.read_file wpath) else None in
  match (base, wal_bytes) with
  | None, None -> nothing_to_recover dir
  | Some (lsn, log), None -> (log, Recovery.nothing_replayed ~total_bytes:0 lsn)
  | base, Some bytes -> (
    (* Replay mutates the base log in place; recovery owns it. *)
    try Recovery.recover_bytes ?pstore ~path:wpath ?base ?upto_lsn bytes
    with Failure msg -> (
        (* Unreadable WAL header.  With a snapshot the state is still
           well-defined: everything up to the checkpoint. *)
        match base with
        | None -> failwith msg
        | Some (lsn, log) ->
          (log, Recovery.nothing_replayed ~corruption:msg ~total_bytes:(String.length bytes) lsn)))

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
  let log, report = replay_dir ?pstore ~dir () in
  let next_lsn = report.Recovery.last_lsn + 1 in
  let path = wal_path dir in
  let wal =
    if report.Recovery.valid_bytes = 0 then
      (* Missing or headerless WAL: start a clean one. *)
      Wal.create ~next_lsn ~device:(Sim_file.open_path path) (header_of log)
    else begin
      let device = Sim_file.open_path ~append:true path in
      (* Repair the torn/corrupt tail so future appends extend a fully
         valid log. *)
      if report.Recovery.valid_bytes < report.Recovery.total_bytes then
        Sim_file.truncate_to device report.Recovery.valid_bytes;
      Wal.attach ~device ~next_lsn
    end
  in
  (log, make dir wal, report)

let close t =
  if not t.closed then begin
    if t.failed = None then failing t (fun () -> Wal.commit t.wal);
    Sim_file.close (Wal.device t.wal);
    t.closed <- true
  end
