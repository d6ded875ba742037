(* MVCC snapshot reads: epoch-pinned snapshots must be isolated from
   every later update — verified against single-threaded replays — and
   superseded versions must be reclaimed once nobody can pin them. *)

open Lazy_xml
module Crash_harness = Lxu_crash_harness.Crash_harness
module Mvcc_harness = Lxu_crash_harness.Mvcc_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Replays the first [k] schedule ops into a fresh store — the oracle
   a snapshot pinned at epoch [k] must match byte for byte. *)
let replay ~engine k ops =
  let db = Lazy_db.create ~engine ~index_attributes:true () in
  List.iteri (fun i op -> if i < k then Crash_harness.apply db op) ops;
  db

(* --- satellite: with_snapshot at epoch E = replay of first E ops ----- *)

let prop_snapshot_replay =
  QCheck2.Test.make ~name:"with_snapshot = prefix replay (LD/LS, packs + rebuilds)" ~count:10
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let ops = Crash_harness.gen_ops ~seed ~target_ops:20 in
      let n = List.length ops in
      List.iter
        (fun (engine, ename) ->
          let db = Lazy_db.create ~engine ~index_attributes:true () in
          (* Pin a snapshot at every prefix boundary and hold them all
             while the rest of the schedule — removes, packs, rebuilds
             included — applies. *)
          let pinned = ref [ (0, Lazy_db.snapshot db) ] in
          List.iteri
            (fun i op ->
              Crash_harness.apply db op;
              check_int (Printf.sprintf "seed %d %s epoch after op %d" seed ename i) (i + 1)
                (Lazy_db.epoch db);
              pinned := (i + 1, Lazy_db.snapshot db) :: !pinned)
            ops;
          (* Every held snapshot still fingerprints as its own epoch. *)
          List.iter
            (fun (e, snap) ->
              let expected = Crash_harness.fingerprint (replay ~engine e ops) in
              let got = Crash_harness.fingerprint snap in
              if got <> expected then
                Alcotest.failf
                  "seed %d %s: snapshot at epoch %d diverges from replay\n\
                  \  expected %S\n\
                  \  got      %S\n\
                  \  replay: seed=%d prefix=[%s]"
                  seed ename e expected got seed
                  (Crash_harness.ops_to_string (List.filteri (fun i _ -> i < e) ops)))
            !pinned;
          (* with_snapshot at the final epoch = the live state. *)
          Lazy_db.with_snapshot db (fun s ->
              check_bool (Printf.sprintf "seed %d %s final" seed ename) true
                (Crash_harness.fingerprint s = Crash_harness.fingerprint (replay ~engine n ops))))
        [ (Lazy_db.LD, "LD"); (Lazy_db.LS, "LS") ];
      true)

(* --- satellite: reader pinned across pack_subtree + checkpoint ------- *)

let test_pinned_across_pack_and_checkpoint () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lazyxml_test_mvcc_wal_%d" (Unix.getpid ()))
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let t = Shared_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      Shared_db.insert t ~gp:0 "<a><b/><b/></a>";
      Shared_db.insert t ~gp:3 "<c><b/></c>";
      let segs_before = Shared_db.read t Lazy_db.segment_count in
      let s = Shared_db.begin_snapshot t in
      let fp0 = Crash_harness.fingerprint (Shared_db.snapshot_db s) in
      let e0 = Shared_db.snapshot_epoch s in
      (* The whole document is packed into one segment, and the WAL is
         checkpointed away — the pinned reader must still see its
         original epoch (pre-PR the epoch invalidation handed it
         post-pack state). *)
      Shared_db.write t (fun db ->
          Lazy_db.pack_subtree db ~gp:0 ~len:(Lazy_db.doc_length db));
      Shared_db.checkpoint t;
      check_int "pack collapsed segments" 1 (Shared_db.read t Lazy_db.segment_count);
      check_bool "pack changed segmentation" true (segs_before > 1);
      check_int "pinned epoch unmoved" e0 (Shared_db.snapshot_epoch s);
      Alcotest.(check string)
        "pinned bytes unmoved" fp0
        (Crash_harness.fingerprint (Shared_db.snapshot_db s));
      (* The pinned snapshot still shows the pre-pack segmentation. *)
      check_int "pinned segments" segs_before (Lazy_db.segment_count (Shared_db.snapshot_db s));
      Shared_db.end_snapshot s;
      (* And once unpinned, nothing is retained or leaked. *)
      (match Shared_db.mvcc_stats t with
      | Some m ->
        check_int "one version at quiescence" 1 m.Shared_db.versions;
        check_int "no pins" 0 m.Shared_db.pinned
      | None -> Alcotest.fail "lazy engine has mvcc stats");
      Shared_db.close t)

(* --- Shared_db MVCC mechanics ---------------------------------------- *)

let test_version_lifecycle () =
  let t = Shared_db.create ~index_attributes:true () in
  Shared_db.insert t ~gp:0 "<a><b/><b/></a>";
  ignore (Shared_db.count t ~anc:"a" ~desc:"b" ());
  check_int "epoch after insert" 1 (Shared_db.current_epoch t);
  let s = Shared_db.begin_snapshot t in
  Shared_db.remove t ~gp:3 ~len:4;
  check_int "epoch after remove" 2 (Shared_db.current_epoch t);
  (match Shared_db.mvcc_stats t with
  | Some m ->
    check_int "pinned version retained" 2 m.Shared_db.versions;
    check_int "one pin" 1 m.Shared_db.pinned
  | None -> Alcotest.fail "mvcc stats");
  (* The pin reads pre-remove state — the segment's old columns —
     while the live side reads post-remove state. *)
  check_int "pinned count" 2 (Lazy_db.count (Shared_db.snapshot_db s) ~anc:"a" ~desc:"b" ());
  check_int "live count" 1 (Shared_db.count t ~anc:"a" ~desc:"b" ());
  Shared_db.end_snapshot s;
  Shared_db.end_snapshot s (* idempotent *);
  (match Shared_db.mvcc_stats t with
  | Some m ->
    check_int "superseded version reclaimed" 1 m.Shared_db.versions;
    check_int "no pins" 0 m.Shared_db.pinned;
    check_int "floor caught up" 2 m.Shared_db.floor
  | None -> Alcotest.fail "mvcc stats")

(* Copy-on-write element columns: a snapshot pinned before a remove
   that cuts segment S keeps S's pre-remove elements, while segments
   the remove never touched share their columns, physically, with the
   live log. *)
let test_snapshot_shares_columns () =
  let module U = Lxu_seglog.Update_log in
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 "<r><a><b/><b/></a></r>";
  Lazy_db.insert db ~gp:22 "<q><b/></q>";
  let snap = Lazy_db.snapshot db in
  Lazy_db.remove db ~gp:6 ~len:4;
  let live = Option.get (Lazy_db.log db) and frozen = Option.get (Lazy_db.log snap) in
  let tid = Option.get (Lxu_seglog.Tag_registry.find (U.registry live) "b") in
  let cut = 1 and untouched = 2 in
  let b log sid = U.elements_cols log ~tid ~sid in
  check_int "snapshot keeps both b of the cut segment" 2
    (Lxu_seglog.Er_node.cols_length (b frozen cut));
  check_int "live cut segment lost one b" 1 (Lxu_seglog.Er_node.cols_length (b live cut));
  check_bool "untouched columns shared" true (b frozen untouched == b live untouched);
  check_bool "untouched store shared" true
    ((U.node_of_sid frozen untouched).Lxu_seglog.Er_node.columns
    == (U.node_of_sid live untouched).Lxu_seglog.Er_node.columns);
  check_int "snapshot join" 2 (Lazy_db.count snap ~anc:"a" ~desc:"b" ());
  check_int "live join" 1 (Lazy_db.count db ~anc:"a" ~desc:"b" ());
  Lazy_db.check snap;
  Lazy_db.check db

let test_snapshot_is_read_only () =
  let t = Shared_db.create () in
  Shared_db.insert t ~gp:0 "<a/>";
  Shared_db.read t (fun db ->
      check_bool "read sees a frozen snapshot" true (Lazy_db.is_snapshot db);
      List.iter
        (fun (name, f) ->
          match f () with
          | () -> Alcotest.failf "%s accepted on a snapshot" name
          | exception Invalid_argument _ -> ())
        [
          ("insert", fun () -> Lazy_db.insert db ~gp:0 "<b/>");
          ("insert_many", fun () -> Lazy_db.insert_many db [ (0, "<b/>") ]);
          ("remove", fun () -> Lazy_db.remove db ~gp:0 ~len:4);
          ("rebuild", fun () -> Lazy_db.rebuild db);
          ("pack_subtree", fun () -> Lazy_db.pack_subtree db ~gp:0 ~len:4);
        ])

(* --- quick slice of the isolation harness (full matrix under @slow) -- *)

let test_harness_quick () =
  List.iter
    (fun domains -> ignore (Mvcc_harness.run_one ~seed:1 ~target_ops:15 ~domains ()))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "version lifecycle + reclamation" `Quick test_version_lifecycle;
    Alcotest.test_case "snapshots are read-only" `Quick test_snapshot_is_read_only;
    Alcotest.test_case "snapshot shares untouched columns" `Quick test_snapshot_shares_columns;
    Alcotest.test_case "pinned across pack + checkpoint" `Quick
      test_pinned_across_pack_and_checkpoint;
    Alcotest.test_case "isolation harness quick slice" `Quick test_harness_quick;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_snapshot_replay ]
