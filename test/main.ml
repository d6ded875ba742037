(* Alcotest truncates a long test name at a width set by the longest
   suite name, here "join_on_edits" (13 characters): a longer suite
   name changes how those names print.

   The suites run in a fresh temp directory; a file any test leaves
   behind in it fails the run, naming the file. *)
let () =
  match
    Lxu_crash_harness.Crash_harness.with_fresh_tmpdir @@ fun () ->
    Alcotest.run ~and_exit:false "lazy_xml"
      [
        ("bignum", Test_bignum.suite);
        ("btree", Test_btree.suite);
        ("xml", Test_xml.suite);
        ("vec", Test_vec.suite);
        ("labeling", Test_labeling.suite);
        ("seglog", Test_seglog.suite);
        ("er_node", Test_er_node.suite);
        ("tag_list", Test_tag_list.suite);
        ("synopsis", Test_synopsis.suite);
        ("plan", Test_plan.suite);
        ("join", Test_join.suite);
        ("join2", Test_join2.suite);
        ("join_on_edits", Test_join.edits_suite);
        ("path_query", Test_path_query.suite);
        ("attributes", Test_attributes.suite);
        ("snapshot", Test_snapshot.suite);
        ("shared_db", Test_shared_db.suite);
        ("boxes", Test_boxes.suite);
        ("core", Test_core.suite);
        ("workload", Test_workload.suite);
        ("storage", Test_storage.suite);
        ("paged", Test_paged.suite);
        ("recovery", Test_recovery.suite);
        ("governor", Test_governor.suite);
        ("update_batch", Test_update_batch.suite);
        ("mvcc", Test_mvcc.suite);
        ("maint", Test_maint.suite);
      ]
  with
  | () -> ()
  | exception Failure msg ->
    prerr_endline msg;
    exit 1
  | exception _ -> (* Alcotest has reported the failing tests. *) exit 1
