(* Concurrency wrapper: queries from several domains racing a stream
   of updates must always observe consistent states. *)

open Lazy_xml
module H = Lxu_crash_harness.Crash_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_sequential_semantics () =
  let t = Shared_db.create () in
  Shared_db.insert t ~gp:0 "<a></a>";
  Shared_db.insert t ~gp:3 "<b/>";
  check_int "count" 1 (Shared_db.count t ~anc:"a" ~desc:"b" ());
  check_int "path" 1 (Shared_db.path_count t "//a/b");
  Shared_db.remove t ~gp:3 ~len:4;
  check_int "after remove" 0 (Shared_db.count t ~anc:"a" ~desc:"b" ());
  let reads, writes = Shared_db.stats t in
  check_bool "reads counted" true (reads >= 2);
  check_int "writes counted" 3 writes

(* Shared_db serves LD only, and [recover] is the one entry point that
   could hand it another engine: a WAL directory written by an LS
   database. *)
let test_ls_rejected () =
  H.with_dir "shared_ls" (fun dir ->
      let db = Lazy_db.create ~engine:Lazy_db.LS ~durability:(`Wal dir) () in
      Lazy_db.insert db ~gp:0 "<a><b/></a>";
      Lazy_db.close db;
      Alcotest.check_raises "ls"
        (Invalid_argument "Shared_db.recover: LS queries mutate the log; use LD") (fun () ->
          ignore (Shared_db.recover dir)))

let test_concurrent_readers_and_writer () =
  let t = Shared_db.create () in
  Shared_db.insert t ~gp:0 "<a></a>";
  let rounds = 60 in
  (* The writer appends one <b/> per round, inside <a>. *)
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          Shared_db.insert t ~gp:3 "<b/>"
        done)
  in
  (* Readers poll the count; every observation must be a value some
     prefix of the update stream produces (0..rounds), and must never
     decrease (counts only grow here). *)
  let reader () =
    Domain.spawn (fun () ->
        let ok = ref true in
        let last = ref 0 in
        for _ = 1 to 200 do
          let c = Shared_db.count t ~anc:"a" ~desc:"b" () in
          if c < !last || c > rounds then ok := false;
          last := c
        done;
        !ok)
  in
  let readers = List.init 3 (fun _ -> reader ()) in
  Domain.join writer;
  List.iter (fun d -> check_bool "consistent observations" true (Domain.join d)) readers;
  check_int "final count" rounds (Shared_db.count t ~anc:"a" ~desc:"b" ());
  Shared_db.read t Lazy_db.check

let test_concurrent_mixed_updates () =
  let t = Shared_db.create () in
  Shared_db.insert t ~gp:0 "<r></r>";
  (* Two writers: one inserts pairs, one removes what it inserted (its
     own fragments at a fixed position, so ranges stay valid). *)
  let w1 =
    Domain.spawn (fun () ->
        for _ = 1 to 40 do
          Shared_db.insert t ~gp:3 "<x/>"
        done)
  in
  let w2 =
    Domain.spawn (fun () ->
        for _ = 1 to 40 do
          Shared_db.insert t ~gp:3 "<y/>";
          (* The just-inserted <y/> is at position 3. *)
          Shared_db.write t (fun db ->
              let text = Lazy_db.text db in
              if String.length text >= 7 && String.sub text 3 4 = "<y/>" then
                Lazy_db.remove db ~gp:3 ~len:4)
        done)
  in
  Domain.join w1;
  Domain.join w2;
  Shared_db.read t Lazy_db.check;
  check_int "x survived" 40 (Shared_db.count t ~anc:"r" ~desc:"x" ())

let test_interleaving_never_torn () =
  (* Each write transaction inserts three <b/> at once, and readers
     must only ever observe multiples of three: a count that is not
     [= 0 mod 3] would mean a read interleaved inside a write. *)
  let t = Shared_db.create () in
  Shared_db.insert t ~gp:0 "<a></a>";
  let txns = 50 in
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to txns do
          Shared_db.write t (fun db ->
              Lazy_db.insert db ~gp:3 "<b/>";
              Lazy_db.insert db ~gp:3 "<b/>";
              Lazy_db.insert db ~gp:3 "<b/>")
        done)
  in
  let reader () =
    Domain.spawn (fun () ->
        let ok = ref true in
        let last = ref 0 in
        for _ = 1 to 150 do
          let c = Shared_db.count t ~anc:"a" ~desc:"b" () in
          if c mod 3 <> 0 || c < !last || c > 3 * txns then ok := false;
          last := c
        done;
        !ok)
  in
  let readers = List.init 3 (fun _ -> reader ()) in
  Domain.join writer;
  List.iter (fun d -> check_bool "only pre/post-txn counts" true (Domain.join d)) readers;
  check_int "final count" (3 * txns) (Shared_db.count t ~anc:"a" ~desc:"b" ());
  Shared_db.read t Lazy_db.check

let test_durable_writers () =
  (* Racing durable writers: the WAL serializes under the write lock,
     so recovery reproduces exactly the final state. *)
  H.with_dir "shared_wal" (fun dir ->
      let t = Shared_db.create ~durability:(`Wal dir) () in
      Shared_db.insert t ~gp:0 "<r></r>";
      let writers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 25 do
                  Shared_db.insert t ~gp:3 "<x/>"
                done))
      in
      List.iter Domain.join writers;
      let final = Shared_db.read t Lazy_db.text in
      Shared_db.close t;
      let t', report = Shared_db.recover dir in
      check_bool "clean wal" true (report.Lxu_storage.Recovery.corruption = None);
      Alcotest.(check string) "recovered text" final (Shared_db.read t' Lazy_db.text);
      check_int "recovered count" 50 (Shared_db.count t' ~anc:"r" ~desc:"x" ());
      Shared_db.close t')

let suite =
  [
    Alcotest.test_case "sequential semantics" `Quick test_sequential_semantics;
    Alcotest.test_case "ls rejected" `Quick test_ls_rejected;
    Alcotest.test_case "readers race writer" `Quick test_concurrent_readers_and_writer;
    Alcotest.test_case "mixed updates" `Quick test_concurrent_mixed_updates;
    Alcotest.test_case "write txns never torn" `Quick test_interleaving_never_torn;
    Alcotest.test_case "durable writers recover" `Quick test_durable_writers;
  ]
