(* Tests for the path-summary synopsis: incremental maintenance under
   inserts, batches, removes and packs must agree with a from-scratch
   rebuild; frozen clones are isolated from later writes; save/load
   reconstructs; cardinalities are consistent with the document. *)

open Lazy_xml
open Lxu_seglog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Incremental = linear rebuild = quadratic reference. *)
let agrees ctx log =
  let rebuilt = Update_log.synopsis_rebuilt log in
  check_bool ctx true (Path_synopsis.equal (Update_log.synopsis log) rebuilt);
  check_bool (ctx ^ ": rebuild = reference") true
    (Path_synopsis.equal rebuilt (Synopsis_ref.synopsis_of_tree (Update_log.root log)))

let log_of db = Option.get (Lazy_db.log db)

let xmark_edits ?(persons = 25) ?(segments = 40) ?(seed = 11) shape =
  let text = Lxu_workload.Xmark.generate_text ~persons ~seed () in
  Lxu_workload.Chopper.chop ~text ~segments shape

(* --- incremental = rebuilt ------------------------------------------- *)

let test_inserts () =
  List.iter
    (fun engine ->
      List.iter
        (fun shape ->
          let db = Lazy_db.create ~engine () in
          List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) (xmark_edits shape);
          let log = log_of db in
          agrees "after inserts" log;
          let syn = Update_log.synopsis log in
          check_int "element totals" (Lazy_db.element_count db) (Path_synopsis.elements syn);
          check_bool "has paths" true (Path_synopsis.distinct_paths syn > 0))
        [ Lxu_workload.Chopper.Balanced; Lxu_workload.Chopper.Nested ])
    [ Lazy_db.LD; Lazy_db.LS ]

let test_batches () =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  Lazy_db.insert_many db (xmark_edits Lxu_workload.Chopper.Balanced);
  agrees "after insert_many" (log_of db)

let test_removes () =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) (xmark_edits Lxu_workload.Chopper.Balanced);
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 12 do
    let text = Lazy_db.text db in
    (* Last element first: the order the cases were drawn in. *)
    match List.rev (Lxu_props.Text_model.element_extents text) with
    | [] -> ()
    | l ->
      let arr = Array.of_list l in
      let s, e_ = arr.(Random.State.int st (Array.length arr)) in
      Lazy_db.remove db ~gp:s ~len:(e_ - s);
      agrees "after each remove" (log_of db)
  done;
  Lazy_db.check db

let test_pack () =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) (xmark_edits Lxu_workload.Chopper.Nested);
  Lazy_db.pack_subtree db ~gp:0 ~len:(Lazy_db.doc_length db);
  agrees "after whole-document pack" (log_of db);
  Lazy_db.check db

(* --- frozen snapshots are isolated ----------------------------------- *)

let test_snapshot_isolation () =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) (xmark_edits Lxu_workload.Chopper.Balanced);
  (let snap = Lazy_db.snapshot db in
      let before = Path_synopsis.distinct_paths (Update_log.synopsis (log_of snap)) in
      (* Mutate the live database; the snapshot's synopsis must not move. *)
      Lazy_db.insert db ~gp:(Lazy_db.doc_length db) "<zzz><yyy/></zzz>";
      Lazy_db.remove db ~gp:(Lazy_db.doc_length db - 17) ~len:17;
      agrees "live log after writes" (log_of db);
      agrees "snapshot after live writes" (log_of snap);
      check_int "snapshot path count unchanged" before
        (Path_synopsis.distinct_paths (Update_log.synopsis (log_of snap))))

(* A frozen synopsis' depth table is read by pool workers without a
   lock, so the live side must never write into it, not even past the
   snapshot's last slot: a new path goes into the live side's own
   copy. *)
let test_frozen_depth_table () =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) (xmark_edits Lxu_workload.Chopper.Balanced);
  (let snap = Lazy_db.snapshot db in
      let syn = Update_log.synopsis (log_of snap) in
      let table = Path_synopsis.depth_table syn in
      let before = Array.copy table in
      let slots = Path_synopsis.slots syn in
      Lazy_db.insert db ~gp:(Lazy_db.doc_length db) "<zzz><yyy><xxx/></yyy></zzz>";
      check_bool "live side registered new paths" true
        (Path_synopsis.slots (Update_log.synopsis (log_of db)) > slots);
      check_bool "snapshot keeps its table" true (Path_synopsis.depth_table syn == table);
      check_bool "no entry of it changed" true (table = before);
      check_int "nor its slot count" slots (Path_synopsis.slots syn))

(* --- save / load ------------------------------------------------------ *)

let test_save_load () =
  Lxu_crash_harness.Crash_harness.with_dir "synopsis" (fun dir ->
      let path = Filename.concat dir "snapshot" in
      let db = Lazy_db.create ~engine:Lazy_db.LD () in
      List.iter
        (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
        (xmark_edits Lxu_workload.Chopper.Balanced);
      Lazy_db.save db path;
      let db2 = Lazy_db.load path in
      agrees "after load" (log_of db2);
      check_bool "same synopsis as the saved db" true
        (Path_synopsis.equal (Update_log.synopsis (log_of db)) (Update_log.synopsis (log_of db2))))

(* --- cardinalities -------------------------------------------------------- *)

let test_tag_total () =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) (xmark_edits Lxu_workload.Chopper.Balanced);
  let log = log_of db in
  let syn = Update_log.synopsis log in
  let reg = Update_log.registry log in
  List.iter
    (fun tag ->
      let expected = List.length (Path_query.eval db (Path_query.parse_exn ("//" ^ tag))) in
      let got =
        match Tag_registry.find reg tag with
        | Some tid -> Path_synopsis.tag_total syn ~tid
        | None -> 0
      in
      check_int ("tag_total " ^ tag) expected got)
    [ "person"; "profile"; "interest"; "watch"; "nosuchtag" ]

(* --- linear rebuild edge cases ----------------------------------------- *)

let path_counts log =
  let reg = Update_log.registry log in
  List.map
    (fun (path, n) -> (List.map (Tag_registry.name reg) path, n))
    (Path_synopsis.to_sorted_list (Update_log.synopsis_rebuilt log))

(* The chain recorded on the node; [check] asserts it equals the
   one-sweep rebuild's. *)
let context log sid =
  Update_log.check log;
  let reg = Update_log.registry log in
  Array.to_list
    (Array.map (Tag_registry.name reg) (Update_log.node_of_sid log sid).Er_node.ctx)

let check_context log sid expected =
  Alcotest.(check (list string)) (Printf.sprintf "context of segment %d" sid) expected
    (context log sid)

(* Containment is strict: a child spliced exactly at an element's start
   or stop lies outside it. *)
let test_strict_containment () =
  let log = Update_log.create () in
  (* <a><b></b></a>: a = [0,14), b = [3,10). *)
  ignore (Update_log.insert log ~gp:0 "<a><b></b></a>");
  (* Right to left, so each gp is still the original offset. *)
  let at_b_stop = Update_log.insert log ~gp:10 "<c/>" in
  let inside_b = Update_log.insert log ~gp:6 "<e/>" in
  let at_b_start = Update_log.insert log ~gp:3 "<d/>" in
  check_context log at_b_stop [ "a" ];
  check_context log inside_b [ "a"; "b" ];
  check_context log at_b_start [ "a" ];
  Alcotest.(check (list (pair (list string) int)))
    "paths"
    (List.sort compare
       [ ([ "a" ], 1); ([ "a"; "b" ], 1); ([ "a"; "c" ], 1); ([ "a"; "b"; "e" ], 1);
         ([ "a"; "d" ], 1) ])
    (List.sort compare (path_counts log));
  agrees "strict containment" log;
  Update_log.check log

(* Tombstones on both sides of a child: the parent's surviving skeleton
   still gives the child its context, and removed elements count for
   nothing. *)
let test_tombstones_around_child () =
  let log = Update_log.create () in
  (* <r><x/><y/><z/></r>: x = [3,7), y = [7,11), z = [11,15). *)
  ignore (Update_log.insert log ~gp:0 "<r><x/><y/><z/></r>");
  let child = Update_log.insert log ~gp:7 "<c><d/></c>" in
  (* Remove x (before the child), then z (after it and after y). *)
  Update_log.remove log ~gp:3 ~len:4;
  Update_log.remove log ~gp:18 ~len:4;
  Alcotest.(check string) "text" "<r><c><d/></c><y/></r>" (Update_log.materialize log);
  check_context log child [ "r" ];
  Alcotest.(check (list (pair (list string) int)))
    "paths"
    (List.sort compare [ ([ "r" ], 1); ([ "r"; "y" ], 1); ([ "r"; "c" ], 1); ([ "r"; "c"; "d" ], 1) ])
    (List.filter (fun (_, n) -> n > 0) (List.sort compare (path_counts log)));
  agrees "tombstones around a child" log;
  Update_log.check log

(* --- qcheck: random edit scripts -------------------------------------- *)

(* Insert/remove/pack/rebuild schedules from the crash harness: after
   every operation the linear rebuild equals the quadratic reference
   (and the incremental synopsis). *)
let prop_linear_rebuild =
  let module H = Lxu_crash_harness.Crash_harness in
  QCheck2.Test.make ~name:"linear synopsis rebuild = quadratic reference" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 30))
    (fun (seed, target_ops) ->
      let db = Lazy_db.create ~index_attributes:(seed mod 2 = 0) () in
      List.for_all
        (fun op ->
          H.apply db op;
          let log = log_of db in
          let rebuilt = Update_log.synopsis_rebuilt log in
          Path_synopsis.equal rebuilt (Synopsis_ref.synopsis_of_tree (Update_log.root log))
          && Path_synopsis.equal rebuilt (Update_log.synopsis log))
        (H.gen_ops ~seed ~target_ops))

let prop_random_scripts =
  QCheck2.Test.make ~name:"synopsis incremental = rebuilt (random scripts)" ~count:30
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let engine = if seed mod 2 = 0 then Lazy_db.LD else Lazy_db.LS in
      let db = Lazy_db.create ~engine () in
      let text =
        Lxu_workload.Generator.generate_text ~seed
          ~target_elements:(40 + (seed mod 60))
          ()
      in
      let shape =
        if seed mod 3 = 0 then Lxu_workload.Chopper.Nested else Lxu_workload.Chopper.Balanced
      in
      let edits = Lxu_workload.Chopper.chop ~text ~segments:(4 + (seed mod 10)) shape in
      List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits;
      (* A few random whole-element removes, then a pack. *)
      for _ = 1 to 3 do
        (* Last element first: the order the cases were drawn in. *)
        match List.rev (Lxu_props.Text_model.element_extents (Lazy_db.text db)) with
        | [] -> ()
        | l ->
          let arr = Array.of_list l in
          let s, e_ = arr.(Random.State.int st (Array.length arr)) in
          Lazy_db.remove db ~gp:s ~len:(e_ - s)
      done;
      let log = log_of db in
      let ok1 =
        Path_synopsis.equal (Update_log.synopsis log) (Update_log.synopsis_rebuilt log)
      in
      if Lazy_db.doc_length db > 0 then
        Lazy_db.pack_subtree db ~gp:0 ~len:(Lazy_db.doc_length db);
      let ok2 =
        Path_synopsis.equal (Update_log.synopsis log) (Update_log.synopsis_rebuilt log)
      in
      ok1 && ok2)

let suite =
  [
    Alcotest.test_case "incremental = rebuilt after inserts" `Quick test_inserts;
    Alcotest.test_case "incremental = rebuilt after insert_many" `Quick test_batches;
    Alcotest.test_case "incremental = rebuilt across removes" `Quick test_removes;
    Alcotest.test_case "incremental = rebuilt after pack" `Quick test_pack;
    Alcotest.test_case "frozen snapshots are isolated" `Quick test_snapshot_isolation;
    Alcotest.test_case "frozen depth table is never written" `Quick test_frozen_depth_table;
    Alcotest.test_case "save/load reconstructs" `Quick test_save_load;
    Alcotest.test_case "tag_total matches query counts" `Quick test_tag_total;
    Alcotest.test_case "rebuild: containment is strict" `Quick test_strict_containment;
    Alcotest.test_case "rebuild: tombstones around a child" `Quick test_tombstones_around_child;
    QCheck_alcotest.to_alcotest prop_random_scripts;
    QCheck_alcotest.to_alcotest prop_linear_rebuild;
  ]
