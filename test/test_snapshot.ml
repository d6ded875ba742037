(* Snapshot persistence: a loaded database must behave byte-identically
   to the saved one — text, labels, queries, and subsequent updates. *)

open Lazy_xml

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("lazyxml_test_" ^ name)

let build_sample () =
  let db = Lazy_db.create ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 "<lib></lib>";
  Lazy_db.insert db ~gp:5 "<book id=\"b1\"><title>t&amp;t</title></book>";
  Lazy_db.insert db ~gp:5 "<book id=\"b2\"><author>a</author></book>";
  (* A deletion, so tombstones are exercised by the snapshot. *)
  Lazy_db.remove db ~gp:19 ~len:18;
  db

let test_roundtrip_state () =
  let db = build_sample () in
  let path = tmp "roundtrip" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  Lazy_db.check db';
  check_string "text" (Lazy_db.text db) (Lazy_db.text db');
  check_int "segments" (Lazy_db.segment_count db) (Lazy_db.segment_count db');
  check_int "elements" (Lazy_db.element_count db) (Lazy_db.element_count db');
  check_bool "engine" true (Lazy_db.engine db' = Lazy_db.LD)

let test_labels_survive () =
  (* Local labels must be preserved exactly — not reassigned by a
     reparse.  Compare raw join pairs on (sid, start) identity. *)
  let db = build_sample () in
  let log = Option.get (Lazy_db.log db) in
  let pairs, _ = Lxu_join.Lazy_join.run log ~anc:"book" ~desc:"title" () in
  let path = tmp "labels" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  let log' = Option.get (Lazy_db.log db') in
  let pairs', _ = Lxu_join.Lazy_join.run log' ~anc:"book" ~desc:"title" () in
  check_bool "identical (sid, start) pairs" true (pairs = pairs')

let test_queries_after_load () =
  let db = build_sample () in
  let path = tmp "queries" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  List.iter
    (fun (anc, desc) ->
      check_int
        (anc ^ "//" ^ desc)
        (Lazy_db.count db ~anc ~desc ())
        (Lazy_db.count db' ~anc ~desc ()))
    [ ("lib", "book"); ("book", "title"); ("book", "@id"); ("lib", "author") ]

let test_updates_after_load () =
  let db = build_sample () in
  let path = tmp "updates" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  (* Apply the same edit to both; they must stay in lockstep. *)
  let at = 5 in
  let frag = "<book id=\"b3\"/>" in
  Lazy_db.insert db ~gp:at frag;
  Lazy_db.insert db' ~gp:at frag;
  check_string "same text" (Lazy_db.text db) (Lazy_db.text db');
  check_int "same count" (Lazy_db.count db ~anc:"lib" ~desc:"book" ())
    (Lazy_db.count db' ~anc:"lib" ~desc:"book" ());
  Lazy_db.check db'

let test_ls_mode_roundtrip () =
  let db = Lazy_db.create ~engine:Lazy_db.LS () in
  Lazy_db.insert db ~gp:0 "<a><b/></a>";
  Lazy_db.insert db ~gp:3 "<b/>";
  let path = tmp "ls" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  check_bool "mode preserved" true (Lazy_db.engine db' = Lazy_db.LS);
  check_int "query works" 2 (Lazy_db.count db' ~anc:"a" ~desc:"b" ())

let test_malformed_snapshot () =
  let path = tmp "malformed" in
  let oc = open_out path in
  output_string oc "not a snapshot\n";
  close_out oc;
  check_bool "rejected" true
    (match Lazy_db.load path with exception Failure _ -> true | _ -> false);
  Sys.remove path

(* Every way a snapshot file can be damaged must surface as [Failure]
   (with the path and byte offset) — never a crash with some other
   exception, and never a silently wrong database. *)
let test_malformed_snapshot_sweep () =
  let db = build_sample () in
  let reference = Lazy_db.text db in
  let path = tmp "sweep" in
  Lazy_db.save db path;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let attempt ~what s =
    write s;
    match Lazy_db.load path with
    | exception Failure msg ->
      let contains ~needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      check_bool
        (Printf.sprintf "%s: %S names the file" what msg)
        true
        (contains ~needle:path msg)
    | exception e ->
      Alcotest.failf "%s: raised %s, not Failure" what (Printexc.to_string e)
    | db' ->
      (* Accepting damaged input is only allowed if the damage was
         invisible (e.g. a cut inside trailing padding). *)
      check_string (what ^ ": loaded state intact") reference (Lazy_db.text db')
  in
  (* Truncations: every strict prefix, including mid-header and
     mid-segment-body cuts. *)
  for len = 0 to String.length bytes - 1 do
    attempt ~what:(Printf.sprintf "prefix %d" len) (String.sub bytes 0 len)
  done;
  (* Bad magic / corrupted header line. *)
  attempt ~what:"bad magic" ("X" ^ String.sub bytes 1 (String.length bytes - 1));
  attempt ~what:"garbage header" "LXUSNAP1 garbage\n";
  Sys.remove path

let test_empty_db_roundtrip () =
  let db = Lazy_db.create () in
  let path = tmp "empty" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  check_int "no segments" 0 (Lazy_db.segment_count db');
  check_string "empty text" "" (Lazy_db.text db')

let suite =
  [
    Alcotest.test_case "roundtrip state" `Quick test_roundtrip_state;
    Alcotest.test_case "labels survive" `Quick test_labels_survive;
    Alcotest.test_case "queries after load" `Quick test_queries_after_load;
    Alcotest.test_case "updates after load" `Quick test_updates_after_load;
    Alcotest.test_case "LS mode roundtrip" `Quick test_ls_mode_roundtrip;
    Alcotest.test_case "malformed rejected" `Quick test_malformed_snapshot;
    Alcotest.test_case "malformed sweep" `Quick test_malformed_snapshot_sweep;
    Alcotest.test_case "empty roundtrip" `Quick test_empty_db_roundtrip;
  ]

(* Random edit schedules survive a save/load round trip: text, checks
   and query answers all preserved. *)
let prop_snapshot_roundtrip =
  let fragments =
    [| "<a/>"; "<b>text</b>"; "<c><a/><b/></c>"; "<d k=\"v\"><b/></d>" |]
  in
  let string_insert s ~gp frag =
    String.sub s 0 gp ^ frag ^ String.sub s gp (String.length s - gp)
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 10) (pair (int_bound 1000) (int_bound 3))) in
  QCheck2.Test.make ~name:"snapshot roundtrip on random schedules" ~count:40 gen
    (fun picks ->
      let db = Lazy_db.create ~index_attributes:true () in
      let text = ref "" in
      List.iter
        (fun (pick, fi) ->
          let frag = fragments.(fi) in
          let points = ref [] in
          for gp = 0 to String.length !text do
            if Lxu_xml.Parser.is_well_formed_fragment (string_insert !text ~gp frag) then
              points := gp :: !points
          done;
          match !points with
          | [] -> ()
          | ps ->
            let gp = List.nth ps (pick mod List.length ps) in
            Lazy_db.insert db ~gp frag;
            text := string_insert !text ~gp frag)
        picks;
      let path = tmp "prop" in
      Lazy_db.save db path;
      let db' = Lazy_db.load path in
      Sys.remove path;
      Lazy_db.check db';
      Lazy_db.text db' = !text
      && List.for_all
           (fun (anc, desc) ->
             Lazy_db.count db ~anc ~desc () = Lazy_db.count db' ~anc ~desc ())
           [ ("c", "a"); ("c", "b"); ("d", "b"); ("d", "@k") ])

(* The stronger roundtrip property: schedules with removes, packs and
   rebuilds, and equality over the {e full} all-pairs join output of
   the vocabulary (via the crash harness fingerprint), not just a few
   counts. *)
let prop_roundtrip_all_pairs =
  let module H = Lxu_crash_harness.Crash_harness in
  let gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 20)) in
  QCheck2.Test.make ~name:"save/load preserves all-pairs join output" ~count:30 gen
    (fun (seed, target_ops) ->
      let db = Lazy_db.create ~index_attributes:true () in
      List.iter (H.apply db) (H.gen_ops ~seed ~target_ops);
      let path = tmp "prop_all_pairs" in
      Lazy_db.save db path;
      let db' = Lazy_db.load path in
      Sys.remove path;
      Lazy_db.check db';
      Lazy_db.element_count db = Lazy_db.element_count db'
      && H.fingerprint db = H.fingerprint db')

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip_all_pairs;
    ]
