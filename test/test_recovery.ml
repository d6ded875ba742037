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

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lazyxml_test_recovery_%d_%s_%d" (Unix.getpid ()) tag !counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir tag f =
  let dir = fresh_dir tag in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

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
  with_dir "roundtrip" (fun dir ->
      let ops, fp = build_durable dir ~seed:11 ~target_ops:15 in
      let db, report = Lazy_db.recover dir in
      check_string "recovered state" fp (H.fingerprint db);
      check_int "every op replayed" (List.length ops) report.Recovery.records_applied;
      check_bool "clean" true (report.Recovery.corruption = None);
      Lazy_db.check db;
      Lazy_db.close db)

let test_checkpoint_and_suffix () =
  with_dir "ckpt" (fun dir ->
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
  with_dir "continue" (fun dir ->
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
  with_dir "torn" (fun dir ->
      let _, _ = build_durable dir ~seed:15 ~target_ops:12 in
      let wal = Wal_store.wal_path dir in
      let bytes = read_file wal in
      let clean = Wal.scan bytes in
      let n = List.length clean.Wal.records in
      write_file wal (String.sub bytes 0 (String.length bytes - 5));
      let db, report = Lazy_db.recover dir in
      check_int "lost exactly the torn record" (n - 1) report.Recovery.records_applied;
      check_bool "tear reported" true (report.Recovery.corruption <> None);
      Lazy_db.close db;
      (* The tail was truncated on disk: a second recovery is clean. *)
      let rescan = Wal.scan (read_file wal) in
      check_bool "wal repaired" true (rescan.Wal.corruption = None);
      check_int "repaired length" report.Recovery.valid_bytes (String.length (read_file wal));
      let db', report' = Lazy_db.recover dir in
      check_bool "second recovery clean" true (report'.Recovery.corruption = None);
      check_int "same state" (n - 1) report'.Recovery.records_applied;
      Lazy_db.close db')

let test_batch_group_commit () =
  with_dir "batch" (fun dir ->
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      let ops = H.gen_ops ~seed:16 ~target_ops:12 in
      Lazy_db.batch db (fun () -> List.iter (H.apply db) ops);
      let fp = H.fingerprint db in
      Lazy_db.close db;
      let db', report = Lazy_db.recover dir in
      check_string "batched updates recover" fp (H.fingerprint db');
      check_int "all records" (List.length ops) report.Recovery.records_applied;
      Lazy_db.close db')

let test_load_with_durability () =
  with_dir "load" (fun dir ->
      (* Build a plain snapshot, then open it durably. *)
      let src = Lazy_db.create ~index_attributes:true () in
      List.iter (H.apply src) (H.gen_ops ~seed:17 ~target_ops:8);
      let snap = Filename.concat (Filename.get_temp_dir_name ()) "lazyxml_test_load_src" in
      Lazy_db.save src snap;
      Fun.protect
        ~finally:(fun () -> Sys.remove snap)
        (fun () ->
          let db = Lazy_db.load ~durability:(`Wal dir) snap in
          Lazy_db.insert db ~gp:0 "<a/>";
          let fp = H.fingerprint db in
          Lazy_db.close db;
          let db', _ = Lazy_db.recover dir in
          check_string "loaded base + wal suffix" fp (H.fingerprint db');
          Lazy_db.close db'))

let test_quick_matrix () =
  (* A quick slice of the @slow acceptance matrix. *)
  H.run_matrix ~seeds:[ 1; 2; 3; 4; 5; 6 ] ~target_ops:12

let test_error_paths () =
  with_dir "errors" (fun dir ->
      (* Nothing recoverable: the message names the directory. *)
      (match Lazy_db.recover dir with
      | exception Failure msg -> check_bool "recover names dir" true (contains ~needle:dir msg)
      | _ -> Alcotest.fail "recovered from an empty directory");
      (* Malformed snapshot: path in the message. *)
      let snap = Wal_store.snapshot_path dir in
      write_file snap "LXUCKPT1 lsn garbage\n";
      (match Recovery.read_snapshot ~path:snap () with
      | exception Failure msg -> check_bool "snapshot names path" true (contains ~needle:snap msg)
      | _ -> Alcotest.fail "malformed checkpoint accepted");
      Sys.remove snap);
  (* Lazy_db.load wraps Update_log failures with the path. *)
  let path = Filename.concat (Filename.get_temp_dir_name ()) "lazyxml_test_badsnap" in
  write_file path "junk";
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Lazy_db.load path with
      | exception Failure msg -> check_bool "load names path" true (contains ~needle:path msg)
      | _ -> Alcotest.fail "junk snapshot accepted")

let suite =
  [
    Alcotest.test_case "durable roundtrip" `Quick test_durable_roundtrip;
    Alcotest.test_case "checkpoint + suffix" `Quick test_checkpoint_and_suffix;
    Alcotest.test_case "recover then continue" `Quick test_recover_then_continue;
    Alcotest.test_case "torn tail repaired in place" `Quick test_torn_tail_repaired_in_place;
    Alcotest.test_case "batch group commit" `Quick test_batch_group_commit;
    Alcotest.test_case "load with durability" `Quick test_load_with_durability;
    Alcotest.test_case "quick crash matrix" `Quick test_quick_matrix;
    Alcotest.test_case "error paths name files" `Quick test_error_paths;
  ]
