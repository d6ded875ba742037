(* Crash recovery at the database level: durable WAL wiring,
   checkpoint + suffix restarts, in-place repair of torn tails, group
   commit via [batch], and the error paths.  A quick slice of the
   crash–recover differential matrix runs here; the full >= 30-seed
   acceptance sweep is [dune build @slow]. *)

open Lazy_xml
module H = Lxu_crash_harness.Crash_harness
module Wal = Lxu_storage.Wal
module Wal_store = Lxu_storage.Wal_store
module Recovery = Lxu_storage.Recovery
module Sim_file = Lxu_storage.Sim_file

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A durable database in [dir] with [H.gen_ops ~seed] applied, closed,
   plus the fingerprint it must recover to. *)
let build_durable ?after dir ~seed ~target_ops =
  let ops = H.gen_ops ~seed ~target_ops in
  let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
  List.iter (H.apply db) ops;
  (match after with Some f -> f db | None -> ());
  let fp = H.fingerprint db in
  Lazy_db.close db;
  (ops, fp)

let test_durable_roundtrip () =
  H.with_dir "roundtrip" (fun dir ->
      let ops, fp = build_durable dir ~seed:11 ~target_ops:15 in
      let db, report = Lazy_db.recover dir in
      check_string "recovered state" fp (H.fingerprint db);
      check_int "every op replayed" (List.length ops) report.Recovery.records_applied;
      check_bool "clean" true (report.Recovery.corruption = None);
      Lazy_db.check db;
      Lazy_db.close db)

let test_checkpoint_and_suffix () =
  H.with_dir "ckpt" (fun dir ->
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      let ops = H.gen_ops ~seed:12 ~target_ops:16 in
      List.iteri
        (fun i op ->
          H.apply db op;
          if i = 7 then Lazy_db.checkpoint db)
        ops;
      let fp = H.fingerprint db in
      Lazy_db.close db;
      let db', report = Lazy_db.recover dir in
      check_string "snapshot + suffix" fp (H.fingerprint db');
      check_bool "recovered from a snapshot" true (report.Recovery.snapshot_lsn > 0);
      check_int "only the suffix replays" (List.length ops - 8) report.Recovery.records_applied;
      Lazy_db.close db')

let test_recover_then_continue () =
  H.with_dir "continue" (fun dir ->
      let _, _ = build_durable dir ~seed:13 ~target_ops:10 in
      let db, _ = Lazy_db.recover dir in
      let more = H.gen_ops ~seed:14 ~target_ops:6 in
      (* Replaying different ops onto the recovered text may be
         invalid; filter to those that still apply. *)
      List.iter (fun op -> try H.apply db op with _ -> ()) more;
      let fp = H.fingerprint db in
      Lazy_db.close db;
      let db', report = Lazy_db.recover dir in
      check_string "appends after recovery survive" fp (H.fingerprint db');
      check_bool "clean" true (report.Recovery.corruption = None);
      Lazy_db.close db')

let test_torn_tail_repaired_in_place () =
  H.with_dir "torn" (fun dir ->
      let _, _ = build_durable dir ~seed:15 ~target_ops:12 in
      let wal = Wal_store.wal_path dir in
      let bytes = H.read_file wal in
      let clean = Wal.scan bytes in
      let n = List.length clean.Wal.records in
      H.write_file wal (String.sub bytes 0 (String.length bytes - 5));
      let db, report = Lazy_db.recover dir in
      check_int "lost exactly the torn record" (n - 1) report.Recovery.records_applied;
      check_bool "tear reported" true (report.Recovery.corruption <> None);
      Lazy_db.close db;
      (* The tail was truncated on disk: a second recovery is clean. *)
      let rescan = Wal.scan (H.read_file wal) in
      check_bool "wal repaired" true (rescan.Wal.corruption = None);
      check_int "repaired length" report.Recovery.valid_bytes (String.length (H.read_file wal));
      let db', report' = Lazy_db.recover dir in
      check_bool "second recovery clean" true (report'.Recovery.corruption = None);
      check_int "same state" (n - 1) report'.Recovery.records_applied;
      Lazy_db.close db')

let test_batch_group_commit () =
  H.with_dir "batch" (fun dir ->
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      let ops = H.gen_ops ~seed:16 ~target_ops:12 in
      Lazy_db.batch db (fun () -> List.iter (H.apply db) ops);
      let fp = H.fingerprint db in
      Lazy_db.close db;
      let db', report = Lazy_db.recover dir in
      check_string "batched updates recover" fp (H.fingerprint db');
      check_int "all records" (List.length ops) report.Recovery.records_applied;
      Lazy_db.close db')

let test_quick_matrix () =
  (* A quick slice of the @slow acceptance matrix. *)
  H.run_matrix ~seeds:[ 1; 2; 3; 4; 5; 6 ] ~target_ops:12 ~wal_fail_every:4

let test_error_paths () =
  H.with_dir "errors" (fun dir ->
      (* Nothing recoverable: the message names the directory. *)
      (match Lazy_db.recover dir with
      | exception Failure msg -> check_bool "recover names dir" true (contains ~needle:dir msg)
      | _ -> Alcotest.fail "recovered from an empty directory");
      (* Malformed snapshot: path in the message. *)
      let snap = Wal_store.snapshot_path dir in
      H.write_file snap "LXUCKPT1 lsn garbage\n";
      (match Recovery.read_snapshot ~path:snap () with
      | exception Failure msg -> check_bool "snapshot names path" true (contains ~needle:snap msg)
      | _ -> Alcotest.fail "malformed checkpoint accepted");
      Sys.remove snap);
  (* Lazy_db.load wraps Update_log failures with the path. *)
  H.with_dir "badsnap" (fun dir ->
      let path = Filename.concat dir "snapshot" in
      H.write_file path "junk";
      match Lazy_db.load path with
      | exception Failure msg -> check_bool "load names path" true (contains ~needle:path msg)
      | _ -> Alcotest.fail "junk snapshot accepted")

(* Replay applies each run of consecutive inserts as one batch.  A
   checksum-valid insert that cannot replay, in the middle of a run,
   must still be pinned exactly: the records before it kept, the
   failure named by its LSN, the WAL cut at its first byte. *)
let test_bad_insert_mid_run () =
  let good_before =
    [ Wal.Insert { gp = 0; text = "<r></r>" }; Wal.Insert { gp = 3; text = "<a/>" };
      Wal.Insert { gp = 3; text = "<b>t</b>" } ]
  in
  let good_after = [ Wal.Insert { gp = 3; text = "<c/>" }; Wal.Insert { gp = 0; text = "<d/>" } ] in
  List.iter
    (fun (what, bad) ->
      H.with_dir "badrun" (fun dir ->
          let st =
            Wal_store.fresh ~dir ~mode:Lxu_seglog.Update_log.Lazy_dynamic
              ~index_attributes:false
          in
          Wal_store.log_ops st (good_before @ [ bad ] @ good_after);
          Wal_store.close st;
          let wal = Wal_store.wal_path dir in
          let records = (Wal.scan (H.read_file wal)).Wal.records in
          check_int (what ^ ": records written") 6 (List.length records);
          let bad_start = (List.nth records 2).Wal.end_off in
          let db, report = Lazy_db.recover dir in
          check_string (what ^ ": state before the bad record") "<r><b>t</b><a/></r>"
            (Lazy_db.text db);
          check_int (what ^ ": records applied") 3 report.Recovery.records_applied;
          check_int (what ^ ": last lsn") 3 report.Recovery.last_lsn;
          check_int (what ^ ": valid bytes end at the bad record") bad_start
            report.Recovery.valid_bytes;
          (match report.Recovery.corruption with
          | Some note ->
            check_bool (what ^ ": note names lsn 4") true
              (contains ~needle:"replay of lsn 4 failed" note)
          | None -> Alcotest.failf "%s: no corruption reported" what);
          Lazy_db.check db;
          Lazy_db.close db;
          check_int (what ^ ": wal truncated at the bad record") bad_start
            (String.length (H.read_file wal))))
    [
      ("gp out of bounds", Wal.Insert { gp = 10_000; text = "<x/>" });
      ("ill-formed fragment", Wal.Insert { gp = 3; text = "<x>" });
    ]

(* Point-in-time restore to an LSN inside a run of inserts stops
   exactly there. *)
let test_restore_mid_run () =
  H.with_dir "pitr_run" (fun dir ->
      let db = Lazy_db.create ~durability:(`Wal dir) () in
      Lazy_db.insert db ~gp:0 "<r></r>";
      let texts = ref [ Lazy_db.text db ] in
      List.iter
        (fun frag ->
          Lazy_db.insert db ~gp:3 frag;
          texts := Lazy_db.text db :: !texts)
        [ "<a/>"; "<b/>"; "<c>t</c>"; "<d/>"; "<e/>" ];
      Lazy_db.close db;
      let texts = Array.of_list (List.rev !texts) in
      let n = Array.length texts in
      for lsn = 1 to n do
        let db', report = Lazy_db.restore_to ~lsn dir in
        check_string (Printf.sprintf "state at lsn %d" lsn) texts.(lsn - 1) (Lazy_db.text db');
        check_int "records applied" lsn report.Recovery.records_applied;
        check_int "last lsn" lsn report.Recovery.last_lsn;
        check_int "later records skipped" (n - lsn) report.Recovery.records_skipped;
        check_bool "not corruption" true (report.Recovery.corruption = None);
        Lazy_db.check db'
      done)

(* A closed durable handle refuses every write kind before applying
   it: the live text stays what recovery gives, so the two can never
   disagree about an update the WAL never saw. *)
let test_closed_handle_refuses_writes () =
  H.with_dir "closed" (fun dir ->
      let db = Lazy_db.create ~durability:(`Wal dir) () in
      Lazy_db.insert db ~gp:0 "<a><b/></a>";
      Lazy_db.close db;
      let text = Lazy_db.text db and len = Lazy_db.doc_length db in
      List.iter
        (fun (what, write) ->
          (match write () with
          | () -> Alcotest.failf "%s on a closed handle was accepted" what
          | exception Invalid_argument msg ->
            check_bool (what ^ ": says closed") true (contains ~needle:"closed" msg));
          check_string (what ^ ": text unchanged") text (Lazy_db.text db);
          check_int (what ^ ": doc_length unchanged") len (Lazy_db.doc_length db))
        [
          ("insert", fun () -> Lazy_db.insert db ~gp:3 "<c/>");
          ("insert_many", fun () -> Lazy_db.insert_many db [ (3, "<c/>"); (3, "<d/>") ]);
          ("remove", fun () -> Lazy_db.remove db ~gp:3 ~len:4);
          ("pack_subtree", fun () -> Lazy_db.pack_subtree db ~gp:0 ~len:11);
          ("rebuild", fun () -> Lazy_db.rebuild db);
        ];
      let db', _ = Lazy_db.recover dir in
      check_string "recover agrees with the live text" text (Lazy_db.text db');
      Lazy_db.close db')

(* A pack whose range the remove accepts (it splits no element) but
   whose bytes do not parse (it cuts a comment) is refused before
   anything moves: the live text stays what recovery gives. *)
let test_refused_pack_changes_nothing () =
  H.with_dir "badpack" (fun dir ->
      let db = Lazy_db.create ~durability:(`Wal dir) () in
      Lazy_db.insert db ~gp:0 "<a><!--xy--><b/></a>";
      let text = Lazy_db.text db in
      (match Lazy_db.pack_subtree db ~gp:3 ~len:6 with
      | () -> Alcotest.fail "pack of a cut comment accepted"
      | exception Lxu_xml.Parser.Parse_error _ -> ());
      check_string "text unchanged" text (Lazy_db.text db);
      Lazy_db.check db;
      Lazy_db.close db;
      let db', _ = Lazy_db.recover dir in
      check_string "recover agrees with the live text" text (Lazy_db.text db');
      Lazy_db.close db')

(* The checkpoint header's LSN is checksummed: flipping any bit pattern
   of any byte of the header line is refused with the path named —
   never read as a different LSN, which would skip or re-apply WAL
   records.  The old unchecksummed format is refused by its magic. *)
let test_checkpoint_header_flips () =
  H.with_dir "ckpt_header" (fun dir ->
      let db = Lazy_db.create ~durability:(`Wal dir) () in
      Lazy_db.insert db ~gp:0 "<r></r>";
      for _ = 2 to 12 do
        Lazy_db.insert db ~gp:3 "<x/>"
      done;
      Lazy_db.checkpoint db;
      for _ = 1 to 3 do
        Lazy_db.insert db ~gp:3 "<y/>"
      done;
      let text = Lazy_db.text db in
      Lazy_db.close db;
      let snap = Wal_store.snapshot_path dir in
      let good = H.read_file snap in
      let header_len = String.index good '\n' + 1 in
      check_string "header"
        (Printf.sprintf "LXUCKPT2 lsn 12 crc %08x\n" (Lxu_storage.Crc32.string "lsn 12"))
        (String.sub good 0 header_len);
      let names_path what msg =
        check_bool (what ^ ": names the path") true (contains ~needle:snap msg)
      in
      let refused what =
        (match Recovery.read_snapshot ~path:snap () with
        | exception Failure msg -> names_path what msg
        | lsn, _ -> Alcotest.failf "%s: read as lsn %d" what lsn);
        match Lazy_db.recover dir with
        | exception Failure msg -> names_path (what ^ " (recover)") msg
        | _ -> Alcotest.failf "%s: recovered" what
      in
      for i = 0 to header_len - 1 do
        List.iter
          (fun mask ->
            let b = Bytes.of_string good in
            Bytes.set b i (Char.chr (Char.code good.[i] lxor mask));
            H.write_file snap (Bytes.to_string b);
            refused (Printf.sprintf "byte %d xor 0x%02x" i mask))
          [ 0x01; 0x20; 0x80 ]
      done;
      let payload = String.sub good header_len (String.length good - header_len) in
      H.write_file snap ("LXUCKPT1 lsn 12\n" ^ payload);
      (match Recovery.read_snapshot ~path:snap () with
      | exception Failure msg ->
        check_bool "format 1 refused by its magic" true (contains ~needle:"format 1" msg)
      | _ -> Alcotest.fail "format 1 header accepted");
      H.write_file snap good;
      let db', report = Lazy_db.recover dir in
      check_int "intact header: snapshot lsn" 12 report.Recovery.snapshot_lsn;
      check_int "intact header: the 3 later records replay" 3 report.Recovery.records_applied;
      check_string "intact header: text" text (Lazy_db.text db');
      Lazy_db.close db')

(* --- a write the WAL refuses ----------------------------------------- *)

(* The next write of the handle's WAL device fails as on a full disk. *)
let fail_next_wal_write db =
  let device = Option.get (Lazy_db.wal_device db) in
  Sim_file.fail_write device ~nth_write:(Sim_file.writes device)

(* A failed handle refuses [f] with a message that names the failed
   WAL write and points to recover. *)
let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s on a failed handle was accepted" what
  | exception Failure msg ->
    check_bool (what ^ ": names the failed write") true (contains ~needle:"WAL write failed" msg);
    check_bool (what ^ ": points to recover") true (contains ~needle:"recover" msg)

(* The op whose WAL write fails has been applied but not logged: the
   call raises, the epoch stays, every later write, checkpoint and
   backup is refused before it applies, [close] does not write the
   refused group again, and recovery lands on the last committed LSN. *)
let test_wal_write_failure () =
  H.with_dir "walfail" (fun dir ->
      let ops = H.gen_ops ~seed:18 ~target_ops:10 in
      let k = 6 in
      check_bool "schedule long enough" true (List.length ops > k);
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      let reference = Lazy_db.create ~index_attributes:true () in
      List.iteri
        (fun i op ->
          if i < k then begin
            H.apply db op;
            H.apply reference op
          end)
        ops;
      fail_next_wal_write db;
      let epoch = Lazy_db.epoch db in
      (match H.apply db (List.nth ops k) with
      | () -> Alcotest.fail "a refused WAL write went unnoticed"
      | exception Sys_error msg ->
        check_bool "ENOSPC-shaped" true (contains ~needle:"No space left on device" msg));
      check_bool "handle failed" true (Lazy_db.wal_failed db);
      check_int "epoch unmoved" epoch (Lazy_db.epoch db);
      let text = Lazy_db.text db in
      refused "insert" (fun () -> Lazy_db.insert db ~gp:0 "<a/>");
      refused "insert_many" (fun () -> Lazy_db.insert_many db [ (0, "<a/>"); (0, "<b/>") ]);
      refused "remove" (fun () -> Lazy_db.remove db ~gp:0 ~len:1);
      refused "pack_subtree" (fun () -> Lazy_db.pack_subtree db ~gp:0 ~len:1);
      refused "rebuild" (fun () -> Lazy_db.rebuild db);
      refused "batch" (fun () -> Lazy_db.batch db ignore);
      refused "checkpoint" (fun () -> Lazy_db.checkpoint db);
      refused "backup" (fun () -> Lazy_db.backup db ~dir:(dir ^ "_bak"));
      check_string "refused writes applied nothing" text (Lazy_db.text db);
      check_int "epoch still unmoved" epoch (Lazy_db.epoch db);
      let wal = Wal_store.wal_path dir in
      let logged = H.read_file wal in
      Lazy_db.close db;
      check_string "close wrote nothing" logged (H.read_file wal);
      let db', report = Lazy_db.recover dir in
      check_int "last committed lsn" k report.Recovery.last_lsn;
      check_bool "clean" true (report.Recovery.corruption = None);
      check_string "state at the last committed lsn" (H.fingerprint reference) (H.fingerprint db');
      (* The recovered handle writes again, from lsn k + 1. *)
      H.apply db' (List.nth ops k);
      H.apply reference (List.nth ops k);
      Lazy_db.close db';
      let db'', report' = Lazy_db.recover dir in
      check_int "the retried op logged" (k + 1) report'.Recovery.last_lsn;
      check_string "and recovered" (H.fingerprint reference) (H.fingerprint db'');
      Lazy_db.close db'')

(* A batch's single commit is its only WAL write: when it fails, none
   of the batch's writes is logged and their epochs are taken back. *)
let test_batch_commit_failure () =
  H.with_dir "batchfail" (fun dir ->
      let ops = H.gen_ops ~seed:19 ~target_ops:12 in
      let before = List.filteri (fun i _ -> i < 5) ops
      and inside = List.filteri (fun i _ -> i >= 5) ops in
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      let reference = Lazy_db.create ~index_attributes:true () in
      List.iter
        (fun op ->
          H.apply db op;
          H.apply reference op)
        before;
      let epoch = Lazy_db.epoch db in
      fail_next_wal_write db;
      (match Lazy_db.batch db (fun () -> List.iter (H.apply db) inside) with
      | () -> Alcotest.fail "a refused batch commit went unnoticed"
      | exception Fun.Finally_raised (Sys_error _) -> ());
      check_bool "handle failed" true (Lazy_db.wal_failed db);
      check_int "epochs taken back" epoch (Lazy_db.epoch db);
      refused "insert after the batch" (fun () -> Lazy_db.insert db ~gp:0 "<a/>");
      Lazy_db.close db;
      let db', report = Lazy_db.recover dir in
      check_int "last committed lsn" (List.length before) report.Recovery.last_lsn;
      check_string "state before the batch" (H.fingerprint reference) (H.fingerprint db');
      Lazy_db.close db')

(* A Shared_db write group whose second op fails to log publishes
   nothing: readers keep the last published version, although the
   first op is committed and recovery holds it. *)
let test_shared_write_group_failure () =
  H.with_dir "sharedfail" (fun dir ->
      let t = Shared_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      Shared_db.insert t ~gp:0 "<r></r>";
      let published = Shared_db.current_epoch t in
      let fp = Shared_db.read t H.fingerprint in
      (match
         Shared_db.write t (fun db ->
             Lazy_db.insert db ~gp:3 "<a/>";
             fail_next_wal_write db;
             Lazy_db.insert db ~gp:3 "<b/>")
       with
      | () -> Alcotest.fail "a refused WAL write went unnoticed"
      | exception Sys_error _ -> ());
      check_int "published epoch unchanged" published (Shared_db.current_epoch t);
      check_string "readers keep the last published version" fp (Shared_db.read t H.fingerprint);
      refused "a later Shared_db write" (fun () -> Shared_db.insert t ~gp:0 "<c/>");
      check_int "still unpublished" published (Shared_db.current_epoch t);
      Shared_db.close t;
      let db, report = Lazy_db.recover dir in
      check_int "the first op committed" 2 report.Recovery.last_lsn;
      check_string "recover holds the first op" "<r><a/></r>" (Lazy_db.text db);
      Lazy_db.close db)

(* Checkpoint and backup onto a full disk: each [*.tmp] in turn is a
   symlink to /dev/full, where every write fails with ENOSPC.  The call
   raises, the temp file is gone, the handle still writes, and
   recovery matches the live state. *)
let test_full_disk_checkpoint_and_backup () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  H.with_dir "fulldisk" (fun dir ->
      H.with_dir "fulldisk_bak" (fun bdir ->
          let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
          let ops = H.gen_ops ~seed:20 ~target_ops:10 in
          let next = ref ops in
          let write_one what =
            match !next with
            | op :: rest ->
              H.apply db op;
              next := rest
            | [] -> Alcotest.failf "%s: schedule exhausted" what
          in
          write_one "first";
          write_one "second";
          let full_disk what tmp f =
            Unix.symlink "/dev/full" tmp;
            (match f () with
            | () -> Alcotest.failf "%s onto a full disk succeeded" what
            | exception Sys_error _ -> ());
            check_bool (what ^ ": no tmp file left") false (Sys.file_exists tmp);
            check_bool (what ^ ": handle not failed") false (Lazy_db.wal_failed db);
            write_one what;
            let fp = H.fingerprint db in
            let db', _ = Lazy_db.recover dir in
            check_string (what ^ ": recover matches the live state") fp (H.fingerprint db');
            Lazy_db.close db'
          in
          let ckpt () = Lazy_db.checkpoint db in
          let backup () = ignore (Lazy_db.backup db ~dir:bdir) in
          full_disk "checkpoint (snapshot)" (Wal_store.snapshot_path dir ^ ".tmp") ckpt;
          full_disk "checkpoint (wal rotation)" (Wal_store.wal_path dir ^ ".tmp") ckpt;
          full_disk "backup (snapshot)" (Wal_store.snapshot_path bdir ^ ".tmp") backup;
          full_disk "backup (wal)" (Wal_store.wal_path bdir ^ ".tmp") backup;
          let fp = H.fingerprint db in
          Lazy_db.close db;
          let db', _ = Lazy_db.recover dir in
          check_string "final recover" fp (H.fingerprint db');
          Lazy_db.close db'))

(* A quick slice of the format fuzzer (the slow tier runs 3,000): raw
   WAL mutants recover into a checked store or are refused. *)
let test_mutated_wals () =
  let t = Lxu_crash_harness.Format_fuzz.wals ~seed:1 ~rounds:200 in
  check_int "every mutant judged" 200 (t.accepted + t.refused);
  check_bool "most mutants recover" true (t.accepted > t.refused)

let suite =
  [
    Alcotest.test_case "durable roundtrip" `Quick test_durable_roundtrip;
    Alcotest.test_case "checkpoint + suffix" `Quick test_checkpoint_and_suffix;
    Alcotest.test_case "recover then continue" `Quick test_recover_then_continue;
    Alcotest.test_case "torn tail repaired in place" `Quick test_torn_tail_repaired_in_place;
    Alcotest.test_case "batch group commit" `Quick test_batch_group_commit;
    Alcotest.test_case "quick crash matrix" `Quick test_quick_matrix;
    Alcotest.test_case "error paths name files" `Quick test_error_paths;
    Alcotest.test_case "bad insert mid-run pinned" `Quick test_bad_insert_mid_run;
    Alcotest.test_case "restore_to inside an insert run" `Quick test_restore_mid_run;
    Alcotest.test_case "closed handle refuses writes" `Quick test_closed_handle_refuses_writes;
    Alcotest.test_case "refused pack changes nothing" `Quick test_refused_pack_changes_nothing;
    Alcotest.test_case "checkpoint header flips refused" `Quick test_checkpoint_header_flips;
    Alcotest.test_case "refused wal write fails the handle" `Quick test_wal_write_failure;
    Alcotest.test_case "refused batch commit fails the handle" `Quick test_batch_commit_failure;
    Alcotest.test_case "shared write group with a refused wal write" `Quick
      test_shared_write_group_failure;
    Alcotest.test_case "checkpoint and backup onto a full disk" `Quick
      test_full_disk_checkpoint_and_backup;
    Alcotest.test_case "mutated WALs recover or are refused" `Quick test_mutated_wals;
  ]
