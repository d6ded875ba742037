let () =
  Alcotest.run "lazy_xml"
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
      ("path_query", Test_path_query.suite);
      ("attributes", Test_attributes.suite);
      ("snapshot", Test_snapshot.suite);
      ("shared_db", Test_shared_db.suite);
      ("boxes", Test_boxes.suite);
      ("core", Test_core.suite);
      ("workload", Test_workload.suite);
      ("parallel_join", Test_parallel_join.suite);
      ("storage", Test_storage.suite);
      ("paged", Test_paged.suite);
      ("recovery", Test_recovery.suite);
      ("governor", Test_governor.suite);
      ("update_batch", Test_update_batch.suite);
      ("mvcc", Test_mvcc.suite);
      ("maint", Test_maint.suite);
    ]
