(* Autonomous self-maintenance: fragmentation statistics, the
   maintainer's job selection and crash safety, point-in-time restore
   at every group-commit boundary, pinned snapshots across auto-packs,
   and write-back (page-cache) durability ordering. *)

open Lazy_xml
module Crash_harness = Lxu_crash_harness.Crash_harness
module Maint_harness = Lxu_crash_harness.Maint_harness
module Update_log = Lxu_seglog.Update_log
module Tag_list = Lxu_seglog.Tag_list
module Sim_file = Lxu_storage.Sim_file
module Wal = Lxu_storage.Wal
module Recovery = Lxu_storage.Recovery

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Packing legitimately changes the physical segment count: state
   comparisons across a pack leave it out. *)
let logical_fp db = Crash_harness.fingerprint ~segments:false db

let check_logical ~ctx expected db =
  let got = logical_fp db in
  if got <> expected then
    Alcotest.failf "%s: state diverges\n  expected %S\n  got      %S" ctx expected got

(* "<a><b>x</b></a><c>y</c>" plus [n] fragments nested one inside the
   other under <a> — a deep ER chain, the pack target shape. *)
let fragment_chain db n =
  Lazy_db.insert db ~gp:0 "<a><b>x</b></a><c>y</c>";
  for i = 0 to n - 1 do
    Lazy_db.insert db ~gp:(3 + (3 * i)) "<d><b>z</b></d>"
  done

(* --- fragmentation statistics ---------------------------------------- *)

let test_frag_stats () =
  let db = Lazy_db.create ~engine:Lazy_db.LD ~index_attributes:true () in
  (match Lazy_db.log db with
  | None -> Alcotest.fail "LD db has a log"
  | Some log ->
    let fs = Update_log.frag_stats log in
    check_int "empty: segments" 0 fs.Update_log.live_segments;
    check_int "empty: depth" 0 fs.Update_log.er_depth);
  fragment_chain db 6;
  match Lazy_db.log db with
  | None -> Alcotest.fail "LD db has a log"
  | Some log ->
    let fs = Update_log.frag_stats log in
    check_int "segments" 7 fs.Update_log.live_segments;
    check_int "er depth" 7 fs.Update_log.er_depth;
    check_int "doc bytes" (String.length (Lazy_db.text db)) fs.Update_log.doc_bytes;
    (match Update_log.fragmented_subtrees log with
    | [] -> Alcotest.fail "expected a fragmented subtree"
    | s :: _ ->
      check_int "subtree holds every segment" 7 s.Update_log.segments;
      check_bool "subtree depth" true (s.Update_log.depth >= 6);
      (* the reported extent is a valid pack target *)
      let fp = logical_fp db in
      Lazy_db.pack_subtree db ~gp:s.Update_log.gp ~len:s.Update_log.len;
      check_logical ~ctx:"pack of reported extent" fp db;
      check_int "packed to one segment" 1
        (Update_log.frag_stats log).Update_log.live_segments);
    (* fragmented_subtrees re-anchors the er_depth high-water mark *)
    ignore (Update_log.fragmented_subtrees log);
    check_int "depth re-anchored after pack" 1 (Update_log.frag_stats log).Update_log.er_depth

let test_dirty_count () =
  let db = Lazy_db.create ~engine:Lazy_db.LS ~index_attributes:false () in
  Lazy_db.insert db ~gp:0 "<a><b>x</b></a>";
  match Lazy_db.log db with
  | None -> Alcotest.fail "LS db has a log"
  | Some log ->
    check_bool "inserts dirty tag lists" true (Tag_list.dirty_count (Update_log.tag_list log) > 0);
    Update_log.prepare_for_query log;
    check_int "merge cleans them" 0 (Tag_list.dirty_count (Update_log.tag_list log))

(* --- maintainer job selection (direct mode) --------------------------- *)

let quiet_config =
  (* thresholds that keep every job out of the way unless a test
     lowers one deliberately *)
  {
    Maintainer.default_config with
    pack_min_segments = 999;
    pack_min_depth = 999;
    checkpoint_wal_bytes = max_int;
    merge_dirty_tags = 0;
  }

let test_pack_until_idle () =
  Crash_harness.with_dir "maintpack" (fun dir ->
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      fragment_chain db 6;
      let fp = logical_fp db in
      let m =
        Maintainer.of_db ~config:{ quiet_config with pack_min_segments = 2; pack_min_depth = 3 } db
      in
      let jobs = Maintainer.run_until_idle m in
      check_bool "ran jobs" true (jobs >= 1);
      check_bool "packed" true ((Maintainer.stats m).Maintainer.packs >= 1);
      check_logical ~ctx:"auto-pack preserves state" fp db;
      check_int "fully packed" 1 (Lazy_db.segment_count db);
      let fp_packed = Crash_harness.fingerprint db in
      (match Maintainer.tick m with
      | Maintainer.Idle -> ()
      | o -> Alcotest.failf "expected idle, got %s" (Maintainer.outcome_to_string o));
      (* packs are WAL-logged: recovery replays them *)
      Lazy_db.close db;
      let rdb, _ = Lazy_db.recover dir in
      Crash_harness.check ~ctx:"recovery after auto-pack" fp_packed rdb;
      Lazy_db.close rdb)

let test_checkpoint_job () =
  Crash_harness.with_dir "maintckpt" (fun dir ->
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      fragment_chain db 3;
      let before = Option.get (Lazy_db.wal_bytes db) in
      let fp = Crash_harness.fingerprint db in
      let m = Maintainer.of_db ~config:{ quiet_config with checkpoint_wal_bytes = 1 } db in
      (match Maintainer.tick m with
      | Maintainer.Ran (Maintainer.Checkpoint b) -> check_int "trigger size" before b
      | o -> Alcotest.failf "expected checkpoint, got %s" (Maintainer.outcome_to_string o));
      check_bool "wal truncated" true (Option.get (Lazy_db.wal_bytes db) < before);
      Lazy_db.close db;
      let rdb, report = Lazy_db.recover dir in
      check_int "nothing left to replay" 0 report.Recovery.records_applied;
      Crash_harness.check ~ctx:"recovery from rolled checkpoint" fp rdb;
      Lazy_db.close rdb)

let test_merge_job () =
  let db = Lazy_db.create ~engine:Lazy_db.LS ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 "<a><b>x</b></a>";
  let log = Option.get (Lazy_db.log db) in
  let dirty = Tag_list.dirty_count (Update_log.tag_list log) in
  check_bool "starts dirty" true (dirty > 0);
  let m = Maintainer.of_db ~config:{ quiet_config with merge_dirty_tags = 1 } db in
  (match Maintainer.tick m with
  | Maintainer.Ran (Maintainer.Merge_tag_runs n) -> check_int "merged count" dirty n
  | o -> Alcotest.failf "expected merge, got %s" (Maintainer.outcome_to_string o));
  check_int "clean after merge" 0 (Tag_list.dirty_count (Update_log.tag_list log));
  match Maintainer.tick m with
  | Maintainer.Idle -> ()
  | o -> Alcotest.failf "expected idle, got %s" (Maintainer.outcome_to_string o)

let test_backup_cadence () =
  Crash_harness.with_dir "maintlive" @@ fun dir ->
  Crash_harness.with_dir "maintship" (fun bdir ->
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      fragment_chain db 2;
      let fp = Crash_harness.fingerprint db in
      let m =
        Maintainer.of_db
          ~config:{ quiet_config with backup_every = 2; backup_dir = Some bdir }
          db
      in
      (match Maintainer.tick m with
      | Maintainer.Idle -> ()
      | o -> Alcotest.failf "tick 1: expected idle, got %s" (Maintainer.outcome_to_string o));
      (match Maintainer.tick m with
      | Maintainer.Ran (Maintainer.Backup { dir = d; lsn }) ->
        check_bool "ships to the configured dir" true (d = bdir);
        check_int "through every committed record" 3 lsn
      | o -> Alcotest.failf "tick 2: expected backup, got %s" (Maintainer.outcome_to_string o));
      (match Maintainer.tick m with
      | Maintainer.Idle -> ()
      | o -> Alcotest.failf "tick 3: expected idle, got %s" (Maintainer.outcome_to_string o));
      (* the shipped backup is a restorable line of history *)
      let rdb, _ = Lazy_db.restore_to ~lsn:3 bdir in
      Crash_harness.check ~ctx:"restore from shipped backup" fp rdb;
      Lazy_db.close db)

let test_config_validation () =
  let db = Lazy_db.create () in
  Alcotest.check_raises "pack_min_segments < 1"
    (Invalid_argument "Maintainer: pack_min_segments < 1") (fun () ->
      ignore (Maintainer.of_db ~config:{ quiet_config with pack_min_segments = 0 } db));
  Alcotest.check_raises "pack_tag_skew < 0"
    (Invalid_argument "Maintainer: pack_tag_skew < 0") (fun () ->
      ignore (Maintainer.of_db ~config:{ quiet_config with pack_tag_skew = -1 } db))

(* --- tag-skew pack trigger -------------------------------------------- *)

let test_tag_skew_pack () =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  (* Tag b lands in every fragment: max_tag_segments grows with the
     chain even though overall thresholds (999) never fire. *)
  fragment_chain db 6;
  (match Lazy_db.log db with
  | None -> Alcotest.fail "LD db has a log"
  | Some log ->
    check_bool "skewed tag spans the chain" true
      ((Update_log.frag_stats log).Update_log.max_tag_segments >= 6));
  let quiet = Maintainer.of_db ~config:quiet_config db in
  check_int "no trigger while disabled" 0 (Maintainer.run_until_idle quiet);
  let fp = logical_fp db in
  let m = Maintainer.of_db ~config:{ quiet_config with pack_tag_skew = 6 } db in
  check_bool "skew triggers packs" true (Maintainer.run_until_idle m >= 1);
  check_bool "packed" true ((Maintainer.stats m).Maintainer.packs >= 1);
  check_logical ~ctx:"skew-triggered pack preserves state" fp db;
  match Lazy_db.log db with
  | None -> Alcotest.fail "LD db has a log"
  | Some log ->
    check_bool "skew defragmented" true
      ((Update_log.frag_stats log).Update_log.max_tag_segments < 6)

(* --- governed mode: shed-first under load ----------------------------- *)

let test_governed_busy () =
  let gov = Governor.create ~index_attributes:true () in
  (match Governor.insert gov ~gp:0 "<a><b>x</b></a>" with
  | Ok () -> ()
  | Error r -> Alcotest.fail (Governor.rejection_to_string r));
  let m = Maintainer.of_governor ~config:quiet_config gov in
  check_int "idle gauges" 0 (snd (Governor.in_flight gov));
  (* park a foreground writer inside the write lock *)
  let entered = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        ignore
          (Governor.write gov (fun _ _db ->
               Atomic.set entered true;
               while not (Atomic.get release) do
                 Domain.cpu_relax ()
               done)))
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  (match Maintainer.tick m with
  | Maintainer.Busy -> ()
  | o -> Alcotest.failf "expected busy, got %s" (Maintainer.outcome_to_string o));
  Atomic.set release true;
  Domain.join d;
  (* quiet again: admitted, nothing to do *)
  match Maintainer.tick m with
  | Maintainer.Idle -> ()
  | o -> Alcotest.failf "expected idle after release, got %s" (Maintainer.outcome_to_string o)

(* --- satellite: pinned snapshot across an auto-pack -------------------- *)

let test_pinned_snapshot_across_pack () =
  let gov = Governor.create ~index_attributes:true () in
  let ok = function
    | Ok () -> ()
    | Error r -> Alcotest.fail (Governor.rejection_to_string r)
  in
  ok (Governor.insert gov ~gp:0 "<a><b>x</b></a><c>y</c>");
  for i = 0 to 5 do
    ok (Governor.insert gov ~gp:(3 + (3 * i)) "<d><b>z</b></d>")
  done;
  let sdb = Governor.shared gov in
  let snap = Shared_db.begin_snapshot sdb in
  let fp = Crash_harness.fingerprint (Shared_db.snapshot_db snap) in
  let lfp = logical_fp (Shared_db.snapshot_db snap) in
  let m =
    Maintainer.of_governor
      ~config:{ quiet_config with pack_min_segments = 2; pack_min_depth = 3 }
      gov
  in
  ignore (Maintainer.run_until_idle m);
  check_bool "auto-pack ran" true ((Maintainer.stats m).Maintainer.packs >= 1);
  (* the reader pinned before the pack must be completely undisturbed *)
  Crash_harness.check ~ctx:"pinned snapshot across auto-pack" fp (Shared_db.snapshot_db snap);
  (* and the pack changed nothing query-visible on the live side either *)
  (match Governor.read gov (fun _ db -> logical_fp db) with
  | Ok got -> check_bool "live state preserved" true (got = lfp)
  | Error r -> Alcotest.fail (Governor.rejection_to_string r));
  Shared_db.end_snapshot snap;
  (* dropping the pin reclaims the retired version on its own *)
  match Shared_db.mvcc_stats sdb with
  | Some ms ->
    check_int "retired versions reclaimed once unpinned" 1 ms.Shared_db.versions;
    check_int "no pins left" 0 ms.Shared_db.pinned
  | None -> Alcotest.fail "LD governor is MVCC"

(* --- satellite: restore_to at every group-commit boundary -------------- *)

let rec batches_of k = function
  | [] -> []
  | ops ->
    let rec take n = function
      | x :: tl when n > 0 ->
        let h, t = take (n - 1) tl in
        (x :: h, t)
      | rest -> ([], rest)
    in
    let h, t = take k ops in
    h :: batches_of k t

let prop_restore_group_commit =
  QCheck2.Test.make ~name:"restore_to lsn = replay of first k batches" ~count:6
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let ops = Crash_harness.gen_ops ~seed ~target_ops:18 in
      let batches = batches_of 3 ops in
      let reference = Crash_harness.Reference.of_ops ops in
      Crash_harness.with_dir "pitrprop" (fun dir ->
          let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
          List.iter
            (fun batch -> Lazy_db.batch db (fun () -> List.iter (Crash_harness.apply db) batch))
            batches;
          Lazy_db.close db;
          (* every group-commit boundary is a restorable point in time *)
          ignore
            (List.fold_left
               (fun lsn batch ->
                 let lsn = lsn + List.length batch in
                 let restored, report = Lazy_db.restore_to ~lsn dir in
                 check_int "replayed exactly to the boundary" lsn report.Recovery.last_lsn;
                 Crash_harness.Reference.check reference
                   ~ctx:(Printf.sprintf "seed %d restore boundary lsn %d" seed lsn)
                   lsn restored;
                 lsn)
               0 batches);
          true))

(* --- write-back durability ordering (page-cache model) ----------------- *)

let wal_header = { Wal.mode = Update_log.Lazy_dynamic; index_attributes = true }

let test_write_back_ordering () =
  let dev = Sim_file.in_memory ~write_back:true () in
  check_bool "write-back mode" true (Sim_file.is_write_back dev);
  let wal = Wal.create ~device:dev wal_header in
  Sim_file.sync dev (* header made durable *);
  ignore (Wal.append wal (Wal.Insert { gp = 0; text = "<a/>" }));
  Wal.commit wal (* group commit without fsync: page cache only *);
  check_int "commit buffered, not durable" 1 (Sim_file.pending_writes dev);
  let scan = Wal.scan (Sim_file.durable_contents dev) in
  check_int "recovery before sync sees no records" 0 (List.length scan.Wal.records);
  check_int "the process itself sees the record" 1
    (List.length (Wal.scan (Sim_file.contents dev)).Wal.records);
  ignore (Wal.append wal (Wal.Insert { gp = 0; text = "<b/>" }));
  Wal.commit wal;
  (* power loss with a lucky one-write prefix flushed by the kernel *)
  Sim_file.crash ~keep:1 dev;
  let scan = Wal.scan (Sim_file.durable_contents dev) in
  check_int "crash keeps the flushed prefix only" 1 (List.length scan.Wal.records);
  (match scan.Wal.records with
  | [ r ] -> check_int "and it is the first commit" 1 r.Wal.lsn
  | _ -> Alcotest.fail "expected exactly the first record");
  (* a synced commit is durable immediately *)
  ignore (Wal.append wal (Wal.Insert { gp = 0; text = "<c/>" }));
  Wal.commit ~sync:true wal;
  check_int "sync drains the buffer" 0 (Sim_file.pending_writes dev);
  check_int "synced commit durable" 2
    (List.length (Wal.scan (Sim_file.durable_contents dev)).Wal.records)

(* --- harness smoke (full matrices live in the @slow tier) -------------- *)

let test_churn_crash_smoke () =
  let recoveries = Maint_harness.run_churn_crash ~seed:1 ~target_ops:24 () in
  check_bool "performed recoveries" true (recoveries > 0)

let test_restore_sweep_smoke () =
  let states = Maint_harness.run_restore_sweep ~seed:2 ~target_ops:14 () in
  check_bool "checked prefix states" true (states > 10)

let test_churn_perf_smoke () =
  let auto, text, gov = Maint_harness.run_churn_perf ~seed:3 ~epochs:5 ~maintain:(`Auto 4) () in
  check_bool "queries measured" true (auto.Maint_harness.queries > 0);
  check_bool "maintenance ran" true (auto.Maint_harness.jobs_run > 0);
  check_bool "latencies finite" true
    (Array.for_all (fun l -> Float.is_finite l && l >= 0.) auto.Maint_harness.latencies_ms);
  let manual, _, _ = Maint_harness.run_churn_perf ~seed:3 ~epochs:5 ~maintain:`Manual () in
  check_int "same schedule" manual.Maint_harness.queries auto.Maint_harness.queries;
  check_bool "manual-only store is more fragmented" true
    (manual.Maint_harness.segments_end >= auto.Maint_harness.segments_end);
  let fresh = Maint_harness.fresh_baseline ~seed:3 ~queries:8 text in
  check_int "baseline sample" 8 (Array.length fresh);
  (* interleaved steady-state measurement returns one array per store *)
  match
    Maint_harness.measure_interleaved ~rounds:4
      [
        (fun () ->
          match Governor.read gov (fun _ db -> Maint_harness.sweep db) with
          | Ok () -> ()
          | Error r -> Alcotest.fail (Governor.rejection_to_string r));
        (fun () -> Maint_harness.sweep (Maint_harness.fresh_store text));
      ]
  with
  | [ a; f ] ->
    check_int "auto samples" 4 (Array.length a);
    check_int "fresh samples" 4 (Array.length f)
  | _ -> Alcotest.fail "one latency array per store"

let suite =
  [
    Alcotest.test_case "frag stats + fragmented_subtrees" `Quick test_frag_stats;
    Alcotest.test_case "tag_list dirty_count" `Quick test_dirty_count;
    Alcotest.test_case "auto-pack until idle (direct, durable)" `Quick test_pack_until_idle;
    Alcotest.test_case "rolling checkpoint job" `Quick test_checkpoint_job;
    Alcotest.test_case "tag-run merge job (LS)" `Quick test_merge_job;
    Alcotest.test_case "backup cadence + restore" `Quick test_backup_cadence;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "tag-skew pack trigger" `Quick test_tag_skew_pack;
    Alcotest.test_case "governed: busy defers to foreground writers" `Quick test_governed_busy;
    Alcotest.test_case "pinned snapshot across auto-pack" `Quick test_pinned_snapshot_across_pack;
    Alcotest.test_case "write-back durability ordering" `Quick test_write_back_ordering;
    Alcotest.test_case "churn crash harness (smoke)" `Quick test_churn_crash_smoke;
    Alcotest.test_case "restore sweep harness (smoke)" `Quick test_restore_sweep_smoke;
    Alcotest.test_case "churn perf harness (smoke)" `Quick test_churn_perf_smoke;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_restore_group_commit ]
