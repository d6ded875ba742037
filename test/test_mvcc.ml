(* MVCC snapshot reads: epoch-pinned snapshots must be isolated from
   every later update — verified against single-threaded replays — and
   superseded versions must be reclaimed once nobody can pin them. *)

open Lazy_xml
module Update_log = Lxu_seglog.Update_log
module Crash_harness = Lxu_crash_harness.Crash_harness
module Mvcc_harness = Lxu_crash_harness.Mvcc_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- satellite: reader pinned across pack_subtree + checkpoint ------- *)

let test_pinned_across_pack_and_checkpoint () =
  Crash_harness.with_dir "mvcc_wal" (fun dir ->
      let t = Shared_db.of_db (Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) ()) in
      Shared_db.write t (fun db -> Lazy_db.insert db ~gp:0 "<a><b/><b/></a>");
      Shared_db.write t (fun db -> Lazy_db.insert db ~gp:3 "<c><b/></c>");
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
  let t = Shared_db.of_db (Lazy_db.create ~index_attributes:true ()) in
  Shared_db.write t (fun db -> Lazy_db.insert db ~gp:0 "<a><b/><b/></a>");
  ignore (Shared_db.read t (fun db -> Lazy_db.count db ~anc:"a" ~desc:"b" ()));
  check_int "epoch after insert" 1 (Shared_db.current_epoch t);
  let s = Shared_db.begin_snapshot t in
  Shared_db.write t (fun db -> Lazy_db.remove db ~gp:3 ~len:4);
  check_int "epoch after remove" 2 (Shared_db.current_epoch t);
  (match Shared_db.mvcc_stats t with
  | Some m ->
    check_int "pinned version retained" 2 m.Shared_db.versions;
    check_int "one pin" 1 m.Shared_db.pinned
  | None -> Alcotest.fail "mvcc stats");
  (* The pin reads pre-remove state — the segment's old columns —
     while the live side reads post-remove state. *)
  check_int "pinned count" 2 (Lazy_db.count (Shared_db.snapshot_db s) ~anc:"a" ~desc:"b" ());
  check_int "live count" 1 (Shared_db.read t (fun db -> Lazy_db.count db ~anc:"a" ~desc:"b" ()));
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
  let t = Shared_db.of_db (Lazy_db.create ()) in
  Shared_db.write t (fun db -> Lazy_db.insert db ~gp:0 "<a/>");
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

(* --- a pinned reader across every kind of in-place change ------------ *)

(* A reader pins a multi-segment store, and three reader domains keep
   fingerprinting the pin (four domains with the writer's) while the
   writer tombstones part of a segment, packs the whole document into
   one segment, marks the tag lists stale and lets a maintainer tick
   merge them.  Then a snapshot of an LS store is held across an insert
   and the query that runs its [prepare_for_query].  Each of these
   changes the live log in place, so each must first copy what the
   pinned version shares: every read of a pin equals the fingerprint
   taken when it was pinned, and the pin still passes the full check. *)
let test_pinned_across_in_place_changes () =
  (* Offset of the first occurrence of [pat] in the document. *)
  let at db pat =
    let text = Lazy_db.text db in
    let rec go i = if String.sub text i (String.length pat) = pat then i else go (i + 1) in
    go 0
  in
  let gov = Governor.create ~index_attributes:true () in
  let t = Governor.shared gov in
  Shared_db.write t (fun db -> Lazy_db.insert db ~gp:0 "<r><a><b/><c>x</c><b/></a><d><b/></d></r>");
  Shared_db.write t (fun db -> Lazy_db.insert db ~gp:(at db "<d>" + 3) "<e><b/><c>y</c></e>");
  Shared_db.write t (fun db -> Lazy_db.insert db ~gp:(at db "<a>" + 3) "<f k=\"1\"><b/></f>");
  let s = Shared_db.begin_snapshot t in
  let pinned = Shared_db.snapshot_db s in
  let fp0 = Crash_harness.fingerprint pinned in
  check_int "pinned segments" 3 (Lazy_db.segment_count pinned);
  let stop = Atomic.make false in
  let reader () =
    let reads = ref 0 and bad = ref 0 in
    while !reads = 0 || not (Atomic.get stop) do
      if Crash_harness.fingerprint pinned <> fp0 then incr bad;
      incr reads
    done;
    !bad
  in
  let readers = List.init 3 (fun _ -> Domain.spawn reader) in
  let writes () =
    (* Part of the first segment's own text: a tombstone, not a removal
       of a whole segment. *)
    Shared_db.write t (fun db -> Lazy_db.remove db ~gp:(at db "<c>x</c>") ~len:8);
    Shared_db.write t (fun db -> Lazy_db.pack_subtree db ~gp:0 ~len:(Lazy_db.doc_length db));
    Shared_db.write t (fun db -> Lazy_db.insert db ~gp:3 "<a><b/></a>");
    Shared_db.write t (fun db -> Update_log.mark_stale (Option.get (Lazy_db.log db)));
    let config =
      {
        Maintainer.default_config with
        pack_min_segments = max_int;
        pack_min_depth = max_int;
        pack_tag_skew = 0;
        merge_dirty_tags = 1;
      }
    in
    match Maintainer.tick (Maintainer.of_governor ~config gov) with
    | Maintainer.Ran (Maintainer.Merge_tag_runs _) -> ()
    | o -> Alcotest.failf "expected a tag-run merge, got %s" (Maintainer.outcome_to_string o)
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true) writes;
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  check_int "concurrent reads that saw another state" 0 bad;
  Alcotest.(check string) "pinned fingerprint unmoved" fp0 (Crash_harness.fingerprint pinned);
  Lazy_db.check pinned;
  check_int "live side packed then grew" 2 (Shared_db.read t Lazy_db.segment_count);
  Shared_db.end_snapshot s;
  Shared_db.read t Lazy_db.check;
  (* LS: the live log's tag lists and sid map go stale on insert and
     are rebuilt in place by the next query. *)
  let db = Lazy_db.create ~engine:Lazy_db.LS ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 "<r><a><b/></a><d></d></r>";
  Lazy_db.insert db ~gp:(at db "<d>" + 3) "<a><b/><b/></a>";
  ignore (Lazy_db.count db ~anc:"a" ~desc:"b" ());
  let snap = Lazy_db.snapshot db in
  let fp0 = Crash_harness.fingerprint snap in
  Lazy_db.insert db ~gp:3 "<a><b/></a>";
  Lazy_db.remove db ~gp:(at db "<b/>") ~len:4;
  check_int "live LS count after prepare_for_query" 3 (Lazy_db.count db ~anc:"a" ~desc:"b" ());
  Alcotest.(check string) "LS pinned fingerprint unmoved" fp0 (Crash_harness.fingerprint snap);
  Lazy_db.check snap;
  Lazy_db.check db

(* --- what a publish allocates ------------------------------------------ *)

(* Words allocated by [Lazy_db.snapshot] plus the next one-segment
   insert, on an XMark store chopped into ~1k and ~4k balanced
   segments.  A snapshot shares every node, the sid map and every
   per-tag list, so only the gp array (one int per segment) and what
   the insert touches are copied.  The cloning freeze this replaced
   allocated 125,779 words at 1k segments and 497,125 at 4k; this one
   allocates 9,521 and 24,672.  Deterministic: no timing. *)
let test_publish_allocation () =
  let words () =
    (* A minor collection first, so major-heap allocations are counted. *)
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  List.iter
    (fun (segments, bound) ->
      let text =
        Lxu_workload.Xmark.generate_text ~persons:(segments / 2) ~items:(segments / 4) ~seed:7 ()
      in
      let db = Lazy_db.create () in
      Lazy_db.insert_many db (Lxu_workload.Chopper.chop ~text ~segments Lxu_workload.Chopper.Balanced);
      let gp =
        let rec go i = if String.sub text i 8 = "<people>" then i + 8 else go (i + 1) in
        go 0
      in
      (* Warm: the first snapshot and write after the load. *)
      ignore (Lazy_db.snapshot db);
      Lazy_db.insert db ~gp "<x/>";
      let before = words () in
      let snap = Lazy_db.snapshot db in
      Lazy_db.insert db ~gp "<person id=\"z\"><name>z</name></person>";
      let used = words () -. before in
      ignore (Sys.opaque_identity snap);
      if used > float bound then
        Alcotest.failf "snapshot + one-segment insert at %d segments allocated %.0f words (bound %d)"
          (Lazy_db.segment_count db) used bound)
    [ (1000, 30_000); (4000, 60_000) ]

(* --- quick slice of the isolation harness (full matrix under @slow) -- *)

let test_harness_quick () = ignore (Mvcc_harness.run_one ~seed:1 ~target_ops:15 ())

let suite =
  [
    Alcotest.test_case "version lifecycle + reclamation" `Quick test_version_lifecycle;
    Alcotest.test_case "snapshots are read-only" `Quick test_snapshot_is_read_only;
    Alcotest.test_case "snapshot shares untouched columns" `Quick test_snapshot_shares_columns;
    Alcotest.test_case "pinned across pack + checkpoint" `Quick
      test_pinned_across_pack_and_checkpoint;
    Alcotest.test_case "pinned across in-place changes (4 domains)" `Quick
      test_pinned_across_in_place_changes;
    Alcotest.test_case "publish allocation (1k, 4k segments)" `Quick test_publish_allocation;
    Alcotest.test_case "isolation harness quick slice" `Quick test_harness_quick;
  ]
  @ [ QCheck_alcotest.to_alcotest (Mvcc_harness.prop_snapshot_replay ~count:10) ]
