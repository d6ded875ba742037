(* Differential tests for the batched write path: insert_batch /
   Lazy_db.insert_many must be query-indistinguishable from the same
   edits applied one at a time, all-or-nothing on invalid input, and
   crash-safe as one WAL record group that recovers a prefix. *)

open Lazy_xml
open Lxu_seglog
module H = Lxu_crash_harness.Crash_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Query-visible state plus the raw element store: document text,
   counts, every (tid, sid, start, stop, level) of the segments'
   columns in that order, and the full all-pairs join output over
   [tags] on both axes.
   Equality of two fingerprints means the two databases cannot be told
   apart by any supported query. *)
let fingerprint ~tags db =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Lazy_db.text db);
  Printf.bprintf b "|elems=%d|segs=%d" (Lazy_db.element_count db) (Lazy_db.segment_count db);
  (match Lazy_db.log db with
  | Some log ->
    let keys = ref [] in
    Er_node.iter_subtree (Update_log.root log) (fun n ->
        Er_node.iter_columns n (fun tid c ->
            for i = 0 to Er_node.cols_length c - 1 do
              keys :=
                (tid, n.Er_node.sid, c.Er_node.starts.(i), c.Er_node.stops.(i), c.Er_node.levels.(i))
                :: !keys
            done));
    List.iter
      (fun (tid, sid, start, stop, level) ->
        Printf.bprintf b "|%d,%d,%d,%d,%d" tid sid start stop level)
      (List.sort compare !keys)
  | None -> ());
  List.iter
    (fun anc ->
      List.iter
        (fun desc ->
          List.iter
            (fun axis ->
              let pairs, _ = Lazy_db.query db ~axis ~anc ~desc () in
              List.iter (fun (a, d) -> Printf.bprintf b "|%d>%d" a d) pairs)
            [ Lazy_db.Descendant; Lazy_db.Child ])
        tags)
    tags;
  Digest.to_hex (Digest.string (Buffer.contents b))

let xmark_tags = [ "person"; "phone"; "profile"; "interest"; "watches"; "watch" ]

let chunks k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = k then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let xmark_edits shape =
  let text = Lxu_workload.Xmark.generate_text ~persons:30 ~seed:7 () in
  Lxu_workload.Chopper.chop ~text ~segments:60 shape

(* --- batched = sequential ------------------------------------------- *)

let test_batch_equals_sequential () =
  let run ~engine ~domains ~batch ~shape =
    let edits = xmark_edits shape in
    let seq_db = Lazy_db.create ~engine ~domains () in
    List.iter (fun (gp, frag) -> Lazy_db.insert seq_db ~gp frag) edits;
    let batch_db = Lazy_db.create ~engine ~domains () in
    List.iter (Lazy_db.insert_many batch_db) (chunks batch edits);
    Lazy_db.check batch_db;
    let ctx =
      Printf.sprintf "%s domains=%d batch=%d %s"
        (match engine with Lazy_db.LD -> "LD" | Lazy_db.LS -> "LS")
        domains batch
        (match shape with Lxu_workload.Chopper.Balanced -> "balanced" | Nested -> "nested")
    in
    check_string ctx (fingerprint ~tags:xmark_tags seq_db) (fingerprint ~tags:xmark_tags batch_db)
  in
  List.iter
    (fun engine ->
      List.iter
        (fun domains ->
          List.iter
            (fun batch -> run ~engine ~domains ~batch ~shape:Lxu_workload.Chopper.Balanced)
            [ 2; 7; 64 ])
        [ 1; 4 ];
      (* The chain-shaped worst-case ER-tree, once per engine. *)
      run ~engine ~domains:1 ~batch:7 ~shape:Lxu_workload.Chopper.Nested)
    [ Lazy_db.LD; Lazy_db.LS ]

(* One-element batch and whole-schedule batch behave too. *)
let test_batch_extremes () =
  let edits = xmark_edits Lxu_workload.Chopper.Balanced in
  let seq_db = Lazy_db.create () in
  List.iter (fun (gp, frag) -> Lazy_db.insert seq_db ~gp frag) edits;
  let one_shot = Lazy_db.create () in
  Lazy_db.insert_many one_shot edits;
  Lazy_db.check one_shot;
  check_string "whole schedule in one batch"
    (fingerprint ~tags:xmark_tags seq_db)
    (fingerprint ~tags:xmark_tags one_shot);
  let empty = Lazy_db.create () in
  Lazy_db.insert_many empty [];
  check_int "empty batch inserts nothing" 0 (Lazy_db.segment_count empty)

(* --- all-or-nothing -------------------------------------------------- *)

let test_all_or_nothing () =
  let tags = [ "r"; "a"; "b"; "x" ] in
  List.iter
    (fun engine ->
      let db = Lazy_db.create ~engine () in
      Lazy_db.insert db ~gp:0 "<r><a/><b/></r>";
      let fp0 = fingerprint ~tags db in
      let segs0 = Lazy_db.segment_count db in
      (* Last edit's gp is out of bounds even after the first two grow
         the document. *)
      (match Lazy_db.insert_many db [ (3, "<x/>"); (3, "<x/>"); (10_000, "<x/>") ] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "out-of-bounds batch applied");
      check_string "bad gp leaves the log unchanged" fp0 (fingerprint ~tags db);
      check_int "no segments added" segs0 (Lazy_db.segment_count db);
      (match Lazy_db.insert_many db [ (3, "<x/>"); (3, "<oops>") ] with
      | exception Lxu_xml.Parser.Parse_error _ -> ()
      | () -> Alcotest.fail "ill-formed batch applied");
      check_string "parse error leaves the log unchanged" fp0 (fingerprint ~tags db);
      (match Lazy_db.insert_many db [ (3, "<x/>"); (4, "") ] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "empty-text batch applied");
      check_string "empty text leaves the log unchanged" fp0 (fingerprint ~tags db);
      Lazy_db.check db)
    [ Lazy_db.LD; Lazy_db.LS ]

(* --- live segment counter -------------------------------------------- *)

let test_segment_counter_matches_walk () =
  let log = Update_log.create () in
  let sids =
    Update_log.insert_batch log
      [ (0, "<r><a/><b/><c/></r>"); (3, "<x><y/></x>"); (3, "<z/>") ]
  in
  check_int "three sids" 3 (List.length sids);
  check_int "counter = walk after batch" (Update_log.segment_count_walk log)
    (Update_log.segment_count log);
  check_int "counter" 3 (Update_log.segment_count log);
  (* Remove a range covering the <z/> segment: counter must follow. *)
  Update_log.remove log ~gp:3 ~len:4;
  check_int "counter = walk after remove" (Update_log.segment_count_walk log)
    (Update_log.segment_count log);
  Update_log.check log

(* --- WAL group commit and crash replay ------------------------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lazyxml_test_batch_%d_%d" (Unix.getpid ()) !counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One insert_many group becomes one run of WAL records committed with
   a single flush; a crash at any record boundary must recover exactly
   the state after that prefix of the batch. *)
let test_wal_group_crash_replay () =
  let tags = [ "r"; "a"; "b"; "x"; "y"; "z" ] in
  let first = (0, "<r><a/><b/></r>") in
  let batch = [ (3, "<x><a/></x>"); (14, "<y/>"); (18, "<z><b/></z>") ] in
  let ops = first :: batch in
  let n = List.length ops in
  (* Reference fingerprints per op prefix, from a never-crashed
     database applying the edits one at a time. *)
  let fps = Array.make (n + 1) "" in
  let reference = Lazy_db.create () in
  fps.(0) <- fingerprint ~tags reference;
  List.iteri
    (fun i (gp, text) ->
      Lazy_db.insert reference ~gp text;
      fps.(i + 1) <- fingerprint ~tags reference)
    ops;
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let db = Lazy_db.create ~durability:(`Wal dir) () in
      let gp0, t0 = first in
      Lazy_db.insert db ~gp:gp0 t0;
      Lazy_db.insert_many db batch;
      check_string "durable db state" fps.(n) (fingerprint ~tags db);
      Lazy_db.close db;
      let wal_bytes = read_file (Lxu_storage.Wal_store.wal_path dir) in
      let scan = Lxu_storage.Wal.scan wal_bytes in
      check_bool "clean WAL" true (scan.Lxu_storage.Wal.corruption = None);
      let records = Array.of_list scan.Lxu_storage.Wal.records in
      check_int "one record per edit of the group" n (Array.length records);
      let boundary_off j =
        if j = 0 then Lxu_storage.Wal.header_bytes else records.(j - 1).Lxu_storage.Wal.end_off
      in
      for j = 0 to n do
        let prefix = String.sub wal_bytes 0 (boundary_off j) in
        let log, report = Lxu_storage.Recovery.recover_bytes prefix in
        check_int
          (Printf.sprintf "boundary %d: records applied" j)
          j report.Lxu_storage.Recovery.records_applied;
        check_string
          (Printf.sprintf "boundary %d: prefix state" j)
          fps.(j)
          (fingerprint ~tags (Lazy_db.of_log log))
      done)

(* The group is logged only once it applied: a failing batch leaves
   the WAL without any record of the group. *)
let test_wal_failed_batch_logs_nothing () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let db = Lazy_db.create ~durability:(`Wal dir) () in
      Lazy_db.insert db ~gp:0 "<r><a/></r>";
      (match Lazy_db.insert_many db [ (3, "<x/>"); (99_999, "<x/>") ] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "bad batch applied");
      Lazy_db.close db;
      let scan = Lxu_storage.Wal.scan (read_file (Lxu_storage.Wal_store.wal_path dir)) in
      check_int "only the first insert is logged" 1
        (List.length scan.Lxu_storage.Wal.records))

(* --- qcheck: random schedules, random chunkings ---------------------- *)

(* Random insert-only schedules over the crash-harness fragment pool:
   positions are drawn from the legal split points of the evolving
   document, then the whole schedule is applied sequentially vs
   batched under a random chunking. *)
let schedule_gen =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* n = int_range 1 40 in
    let* batch = int_range 1 10 in
    return (seed, n, batch))

let build_schedule seed n =
  let rng = Lxu_workload.Rng.create seed in
  let doc = Buffer.create 256 in
  let edits = ref [] in
  for _ = 1 to n do
    let frag = H.fragments.(Lxu_workload.Rng.int rng (Array.length H.fragments)) in
    let text = Buffer.contents doc in
    let points =
      (* Legal insertion points: start/end of any element, or the
         document edges. *)
      0 :: String.length text
      :: List.concat_map (fun (s, e) -> [ s; e ]) (H.element_extents text)
      |> List.sort_uniq compare
    in
    let gp = List.nth points (Lxu_workload.Rng.int rng (List.length points)) in
    edits := (gp, frag) :: !edits;
    Buffer.clear doc;
    Buffer.add_string doc
      (String.sub text 0 gp ^ frag ^ String.sub text gp (String.length text - gp))
  done;
  List.rev !edits

let prop_random_schedules =
  QCheck2.Test.make ~name:"insert_many = sequential inserts (random schedules)" ~count:60
    schedule_gen (fun (seed, n, batch) ->
      let edits = build_schedule seed n in
      let tags = Array.to_list H.vocabulary in
      List.for_all
        (fun engine ->
          let seq_db = Lazy_db.create ~engine ~index_attributes:true () in
          List.iter (fun (gp, frag) -> Lazy_db.insert seq_db ~gp frag) edits;
          let batch_db = Lazy_db.create ~engine ~index_attributes:true () in
          List.iter (Lazy_db.insert_many batch_db) (chunks batch edits);
          Lazy_db.check batch_db;
          fingerprint ~tags seq_db = fingerprint ~tags batch_db)
        [ Lazy_db.LD; Lazy_db.LS ])

let suite =
  [
    Alcotest.test_case "batched = sequential (engines x domains x sizes)" `Quick
      test_batch_equals_sequential;
    Alcotest.test_case "batch extremes" `Quick test_batch_extremes;
    Alcotest.test_case "all-or-nothing" `Quick test_all_or_nothing;
    Alcotest.test_case "segment counter = walk" `Quick test_segment_counter_matches_walk;
    Alcotest.test_case "WAL group crash replay" `Quick test_wal_group_crash_replay;
    Alcotest.test_case "failed batch logs nothing" `Quick test_wal_failed_batch_logs_nothing;
    QCheck_alcotest.to_alcotest prop_random_schedules;
  ]
