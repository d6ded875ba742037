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

(* The one report literal: the state is the snapshot at [lsn] and no
   WAL record replayed. *)
let nothing_replayed ?corruption ~total_bytes lsn =
  {
    snapshot_lsn = lsn;
    records_total = 0;
    records_applied = 0;
    records_skipped = 0;
    valid_bytes = 0;
    total_bytes;
    corruption;
    last_lsn = lsn;
  }

(* --- checkpoint snapshots -------------------------------------------- *)

(* The header line is [LXUCKPT2 lsn <n> crc <8 hex>], the CRC-32 of the
   [lsn <n>] text: the payload's own trailer does not cover the LSN,
   and a flipped digit there would skip or re-apply WAL records. *)
let snapshot_magic = "LXUCKPT2"

let header_line lsn =
  let body = Printf.sprintf "lsn %d" lsn in
  Printf.sprintf "%s %s crc %08x" snapshot_magic body (Crc32.string body)

(* Through [Sim_file.replace]: a crash leaves the previous snapshot or
   this one, durably, so a later WAL truncation never destroys the only
   copy of the records a snapshot claims to hold. *)
let write_snapshot ~path ~lsn log =
  Sim_file.replace path (fun oc ->
      output_string oc (header_line lsn ^ "\n");
      Update_log.save log oc)

let read_snapshot ?pstore ~path () =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let r = Snapshot_io.reader ic in
      let fail msg =
        failwith (Printf.sprintf "%s: %s (at byte %d)" path msg (Snapshot_io.line_offset r))
      in
      if not (Snapshot_io.next_line r) then fail "truncated checkpoint header";
      let first = Snapshot_io.line r in
      if String.starts_with ~prefix:"LXUCKPT1 " first then
        fail "checkpoint format 1 (no header checksum) is no longer supported";
      let lsn =
        match
          Snapshot_io.keyword r snapshot_magic;
          if Snapshot_io.word r <> "lsn" then raise Snapshot_io.Malformed;
          let lsn = Snapshot_io.int r in
          if Snapshot_io.word r <> "crc" then raise Snapshot_io.Malformed;
          ignore (Snapshot_io.word r);
          Snapshot_io.eol r;
          lsn
        with
        | lsn -> lsn
        | exception Snapshot_io.Malformed -> fail "not a lazyxml checkpoint"
      in
      (* The line must be exactly what [write_snapshot] writes for this
         LSN, checksum included: any other spelling of a number that
         parses is a damaged header. *)
      if lsn < 0 || first <> header_line lsn then fail "checkpoint header checksum mismatch";
      (* The payload starts after the header line, wherever the
         reader's buffer has got to. *)
      seek_in ic (Snapshot_io.offset r);
      (* Update_log.load's messages already carry the byte offset. *)
      let log =
        try Update_log.load ?pstore ic
        with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)
      in
      (lsn, log))

(* --- replay ----------------------------------------------------------- *)

(* Splits [xs] into maximal runs of consecutive inserts and single
   other ops, in order.  [op_of] reads the op of an element. *)
let runs op_of xs =
  let close run acc = if run = [] then acc else List.rev run :: acc in
  let run, acc =
    List.fold_left
      (fun (run, acc) x ->
        match op_of x with
        | Wal.Insert _ -> (x :: run, acc)
        | _ -> ([], [ x ] :: close run acc))
      ([], []) xs
  in
  List.rev (close run acc)

(* Applies one run of [runs]: one non-insert op, or inserts as one
   batch. *)
let apply_run ?pstore log = function
  | [ Wal.Remove { gp; len } ] ->
    Update_log.remove log ~gp ~len;
    log
  | [ Wal.Pack { gp; len } ] ->
    (* Re-index the byte range as one segment: one remove and one
       insert of the same bytes.  The remove checks splits only at
       element granularity, so parse the slice before it: a range cut
       inside a comment must be refused while nothing has moved. *)
    if gp < 0 || len <= 0 || gp + len > Update_log.doc_length log then
      invalid_arg "Recovery.replay: pack range out of bounds";
    let slice = Update_log.materialize_range log ~gp ~len in
    ignore (Lxu_xml.Parser.parse_fragment slice);
    Update_log.remove log ~gp ~len;
    ignore (Update_log.insert log ~gp slice);
    log
  | [ Wal.Rebuild ] ->
    (* The fresh log replaces the old one, whose pages go back to the
       store once the fresh log holds the whole text. *)
    let whole = Update_log.materialize log in
    let fresh =
      Update_log.create ~mode:(Update_log.mode log)
        ~index_attributes:(Update_log.indexes_attributes log) ?pstore ()
    in
    if whole <> "" then ignore (Update_log.insert fresh ~gp:0 whole);
    Update_log.release log;
    fresh
  | inserts ->
    let edit = function
      | Wal.Insert { gp; text } -> (gp, text)
      | _ -> invalid_arg "Recovery.replay: not a run"
    in
    ignore (Update_log.insert_batch log (List.map edit inserts));
    log

let replay ?pstore log ops =
  List.fold_left (fun log run -> apply_run ?pstore log run) log (runs Fun.id ops)

let recover_bytes ?pstore ?path ?base ?(upto_lsn = max_int) wal_bytes =
  let scan = Wal.scan ?path wal_bytes in
  let snapshot_lsn, log0 =
    match base with
    | Some (lsn, log) -> (lsn, log)
    | None ->
      ( 0,
        Update_log.create ~mode:scan.Wal.header.Wal.mode
          ~index_attributes:scan.Wal.header.Wal.index_attributes ?pstore () )
  in
  (* Records arrive in strictly increasing LSN order: first those the
     snapshot already holds, then the ones to replay, then — for a
     point-in-time restore — valid history past [upto_lsn], which is
     skipped, not treated as corruption. *)
  let lsn_at_most n (r : Wal.record) = r.Wal.lsn <= n in
  let held, rest = List.partition (lsn_at_most snapshot_lsn) scan.Wal.records in
  let todo, beyond = List.partition (lsn_at_most upto_lsn) rest in
  let log = ref log0 in
  let applied = ref 0 in
  let valid = ref scan.Wal.valid_bytes and note = ref scan.Wal.corruption in
  let last_lsn = ref snapshot_lsn in
  (* End offset of the last record kept; replay failure truncates to it. *)
  let prev_end =
    ref (List.fold_left (fun _ (r : Wal.record) -> r.Wal.end_off) Wal.header_bytes held)
  in
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
  let op_of (r : Wal.record) = r.Wal.op in
  let replay_records records = log := replay ?pstore !log (List.map op_of records) in
  (* Each run ({!replay}'s unit: a maximal run of inserts as one batch,
     or one other op) replays whole.  A run refuses before it mutates
     anything, so when one does, its records replay one by one, which
     pins the failure on the exact LSN.  Anything else raised mid-run
     (a storage fault) is charged to the run's first record, which
     keeps only the records before the run. *)
  (try
     List.iter
       (fun run ->
         match replay_records run with
         | () -> List.iter kept run
         | exception (Invalid_argument _ | Lxu_xml.Parser.Parse_error _) ->
           List.iter
             (fun r ->
               match replay_records [ r ] with () -> kept r | exception e -> failed r e)
             run
         | exception e -> failed (List.hd run) e)
       (runs op_of todo)
   with Exit -> ());
  ( !log,
    {
      (nothing_replayed ?corruption:!note ~total_bytes:scan.Wal.total_bytes snapshot_lsn) with
      records_total = List.length scan.Wal.records;
      records_applied = !applied;
      records_skipped = List.length held + List.length beyond;
      valid_bytes = !valid;
      last_lsn = !last_lsn;
    } )
