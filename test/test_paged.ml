(* The paged storage engine: page-backed B+-trees over the
   copy-on-write page store, differentially against the in-memory
   backend — same keys in, same answers out — plus the crash shapes
   the shadow-paging protocol must survive (rollback to the last
   checkpoint, torn meta pages, torn data files) and the beyond-RAM
   acceptance path: a document larger than the buffer-pool budget
   that still ingests, checkpoints, recovers and answers planned twig
   queries exactly like the in-memory engine. *)

open Lazy_xml
module H = Lxu_crash_harness.Crash_harness
module Sim_file = Lxu_storage.Sim_file
module Page_file = Lxu_storage.Page_file
module Page_store = Lxu_storage.Page_store
module Buffer_pool = Lxu_storage.Buffer_pool
module Paged_bptree = Lxu_btree.Paged_bptree
module Rng = Lxu_workload.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Small pages so a few hundred keys already build a multi-level
   tree: splits, separators and the lazy-deletion paths all fire. *)
let small_store ?(page_size = 512) ?pool_bytes () =
  Page_store.create ~device:(Sim_file.in_memory ()) ~page_size ?pool_bytes ()

(* --- paged B+-tree vs Map, random schedule -------------------------- *)

module IPM = Map.Make (struct
  type t = int * int

  let compare = compare
end)

(* The pool holds a few pages of a tree many times larger, so every
   lookup path also exercises eviction and dirty write-back. *)
let test_bptree_differential () =
  let ps = small_store ~pool_bytes:(8 * 512) () in
  let tr = Paged_bptree.create ps ~slot:"t" ~kw:2 ~vw:1 in
  let rng = Rng.create 42 in
  let model = ref IPM.empty in
  let key () = (Rng.int rng 200, Rng.int rng 50) in
  for step = 1 to 3000 do
    let (a, b) as k = key () in
    if Rng.int rng 4 = 0 then begin
      let removed = Paged_bptree.remove tr [| a; b |] in
      check_bool "remove agrees" (IPM.mem k !model) removed;
      model := IPM.remove k !model
    end
    else begin
      let v = Rng.int rng 1000 in
      Paged_bptree.insert tr [| a; b |] [| v |];
      model := IPM.add k v !model
    end;
    if step mod 500 = 0 then begin
      Paged_bptree.check_invariants tr;
      check_int "length" (IPM.cardinal !model) (Paged_bptree.length tr)
    end
  done;
  (* Point lookups. *)
  let vbuf = [| 0 |] in
  for _ = 1 to 500 do
    let (a, b) as k = key () in
    match IPM.find_opt k !model with
    | Some v ->
      check_bool "find hit" true (Paged_bptree.find tr [| a; b |] ~value:vbuf);
      check_int "find value" v vbuf.(0)
    | None -> check_bool "find miss" false (Paged_bptree.mem tr [| a; b |])
  done;
  (* Full scan order and content. *)
  let got = ref [] in
  Paged_bptree.iter tr (fun kb vb ->
      got := ((kb.(0), kb.(1)), vb.(0)) :: !got;
      true);
  let expect = IPM.bindings !model in
  check_int "scan cardinality" (List.length expect) (List.length !got);
  List.iter2
    (fun (ek, ev) (gk, gv) ->
      check_bool "scan key" true (ek = gk);
      check_int "scan value" ev gv)
    expect
    (List.rev !got);
  (* Bounded scan from a midpoint. *)
  let lo = (100, 0) in
  let got = ref [] in
  Paged_bptree.iter_from tr [| 100; 0 |] (fun kb vb ->
      got := ((kb.(0), kb.(1)), vb.(0)) :: !got;
      true);
  let expect = List.filter (fun (k, _) -> k >= lo) expect in
  check_int "bounded scan" (List.length expect) (List.length !got);
  let pool = (Page_store.stats ps).Page_store.pool in
  check_bool "pool evicted" true (pool.Buffer_pool.evictions > 0);
  check_bool "pool wrote back" true (pool.Buffer_pool.writebacks > 0);
  check_int "lookups = hits + misses" pool.Buffer_pool.lookups
    (pool.Buffer_pool.hits + pool.Buffer_pool.misses);
  Page_store.close ps

(* Pinning more frames than the budget holds must run the pool over
   budget (counted as overruns) rather than block; once the pins are
   released, the next fault evicts back under budget. *)
let test_pool_overrun () =
  let file = Page_file.create ~device:(Sim_file.in_memory ()) ~page_size:512 in
  let pool = Buffer_pool.create ~max_bytes:(4 * 512) file in
  let frames = List.init 12 (fun pid -> Buffer_pool.pin pool pid ~read:false) in
  let s = Buffer_pool.stats pool in
  check_bool "overruns counted" true (s.Buffer_pool.overruns > 0);
  check_bool "over budget while pinned" true (s.Buffer_pool.bytes > s.Buffer_pool.max_bytes);
  check_int "every pin resident" 12 s.Buffer_pool.pinned_frames;
  List.iter (Buffer_pool.unpin pool) frames;
  Buffer_pool.unpin pool (Buffer_pool.pin pool 99 ~read:false);
  let s' = Buffer_pool.stats pool in
  check_bool "back under budget" true (s'.Buffer_pool.bytes <= s'.Buffer_pool.max_bytes);
  check_int "no overrun once unpinned" s.Buffer_pool.overruns s'.Buffer_pool.overruns

let test_bptree_bulk () =
  let ps = small_store () in
  let tr = Paged_bptree.create ps ~slot:"t" ~kw:1 ~vw:1 in
  let n = 5000 in
  Paged_bptree.load_sorted tr ~n ~get:(fun i kb vb ->
      kb.(0) <- 2 * i;
      vb.(0) <- i);
  Paged_bptree.check_invariants tr;
  check_int "bulk length" n (Paged_bptree.length tr);
  (* Merge a batch that half-overlaps (replace) and half-extends. *)
  Paged_bptree.insert_sorted_batch tr ~n ~get:(fun i kb vb ->
      kb.(0) <- (2 * i) + (i mod 2);
      vb.(0) <- 100000 + i);
  Paged_bptree.check_invariants tr;
  let vbuf = [| 0 |] in
  check_bool "batch replaced" true (Paged_bptree.find tr [| 0 |] ~value:vbuf);
  check_int "batch wins tie" 100000 vbuf.(0);
  check_bool "batch extended" true (Paged_bptree.mem tr [| (2 * 4999) + 1 |]);
  (* Lazy deletion down to empty, then reuse. *)
  Paged_bptree.iter tr (fun _ _ -> true);
  Paged_bptree.clear tr;
  check_int "cleared" 0 (Paged_bptree.length tr);
  Paged_bptree.insert tr [| 7 |] [| 8 |];
  check_bool "reusable after clear" true (Paged_bptree.mem tr [| 7 |]);
  Page_store.close ps

(* --- checkpoint durability and crash rollback ------------------------ *)

let fill tr lo hi =
  for i = lo to hi - 1 do
    Paged_bptree.insert tr [| i |] [| i * i |]
  done

let test_checkpoint_reopen () =
  H.with_dir "paged_reopen" (fun dir ->
      let path = Filename.concat dir "pages" in
      let ps = Page_store.create ~device:(Sim_file.open_path path) ~page_size:512 () in
      let tr = Paged_bptree.create ps ~slot:"t" ~kw:1 ~vw:1 in
      fill tr 0 1000;
      Page_store.checkpoint ps ~lsn:7;
      Page_store.close ps;
      let ps = Page_store.open_existing ~device:(Sim_file.open_path ~append:true path) () in
      check_int "checkpoint lsn survives" 7 (Page_store.checkpoint_lsn ps);
      let tr = Paged_bptree.attach ps ~slot:"t" ~kw:1 ~vw:1 in
      Paged_bptree.check_invariants tr;
      check_int "reopened length" 1000 (Paged_bptree.length tr);
      let vbuf = [| 0 |] in
      check_bool "reopened find" true (Paged_bptree.find tr [| 999 |] ~value:vbuf);
      check_int "reopened value" (999 * 999) vbuf.(0);
      Page_store.close ps)

(* Uncheckpointed work after a checkpoint rolls back to the checkpoint
   — the COW protocol must never overwrite a durably referenced page. *)
let test_crash_rollback () =
  let device = Sim_file.in_memory ~write_back:true () in
  let ps = Page_store.create ~device ~page_size:512 () in
  let tr = Paged_bptree.create ps ~slot:"t" ~kw:1 ~vw:1 in
  fill tr 0 500;
  Page_store.checkpoint ps ~lsn:1;
  (* Epoch 2: overwrite half the keys, delete a quarter, add new ones —
     all COW relocations of durable pages.  Then crash (drop every
     unsynced write). *)
  for i = 0 to 249 do
    Paged_bptree.insert tr [| i |] [| -1 |]
  done;
  for i = 250 to 374 do
    ignore (Paged_bptree.remove tr [| i |])
  done;
  fill tr 500 700;
  Sim_file.crash device;
  let ps2 = Page_store.open_existing ~device () in
  check_int "rolled back to lsn" 1 (Page_store.checkpoint_lsn ps2);
  let tr2 = Paged_bptree.attach ps2 ~slot:"t" ~kw:1 ~vw:1 in
  Paged_bptree.check_invariants tr2;
  check_int "rolled back length" 500 (Paged_bptree.length tr2);
  let vbuf = [| 0 |] in
  for i = 0 to 499 do
    check_bool "key present" true (Paged_bptree.find tr2 [| i |] ~value:vbuf);
    check_int "pre-crash value" (i * i) vbuf.(0)
  done;
  check_bool "post-checkpoint key gone" false (Paged_bptree.mem tr2 [| 600 |])

let test_torn_page_detected () =
  let device = Sim_file.in_memory () in
  let pf = Page_file.create ~device ~page_size:512 in
  let payload = Bytes.make (Page_file.payload_bytes pf) 'x' in
  Page_file.write pf 3 payload;
  (* Tear the tail off the next write of page 4: the checksum must
     catch it on read. *)
  Sim_file.inject device ~nth_write:(Sim_file.writes device) (Sim_file.Truncate_tail 100);
  Page_file.write pf 4 payload;
  let buf = Bytes.create (Page_file.payload_bytes pf) in
  Page_file.read pf 3 buf;
  check_bool "intact page reads" true (Bytes.equal buf payload);
  check_bool "torn page detected" true
    (match Page_file.read pf 4 buf with
    | () -> false
    | exception Page_file.Torn_page _ -> true)

(* A torn write of the newest meta page must fall back to the previous
   generation, not fail the open. *)
let test_torn_meta_fallback () =
  let device = Sim_file.in_memory () in
  let ps = Page_store.create ~device ~page_size:512 () in
  let tr = Paged_bptree.create ps ~slot:"t" ~kw:1 ~vw:1 in
  fill tr 0 100;
  Page_store.checkpoint ps ~lsn:1 (* gen 1, meta at pid 2 *);
  fill tr 100 200;
  Page_store.checkpoint ps ~lsn:2 (* gen 2, meta at pid 1 *);
  (* Smash generation 2's meta page the way a torn sector would. *)
  Sim_file.write_at device ~off:512 (String.make 512 '\xff');
  let ps2 = Page_store.open_existing ~device () in
  check_int "fell back to gen 1" 1 (Page_store.checkpoint_lsn ps2);
  let tr2 = Paged_bptree.attach ps2 ~slot:"t" ~kw:1 ~vw:1 in
  Paged_bptree.check_invariants tr2;
  check_int "gen-1 state" 100 (Paged_bptree.length tr2)

(* --- database level: paged vs mem, fingerprint-identical ------------- *)

let apply_all db ops = List.iter (H.apply db) ops

let test_db_paged_matches_mem () =
  List.iter
    (fun seed ->
      let ops = H.gen_ops ~seed ~target_ops:18 in
      let mem = Lazy_db.create ~index_attributes:true ~storage:`Mem () in
      let paged = Lazy_db.create ~index_attributes:true ~storage:`Paged () in
      check_bool "is paged" true (Lazy_db.storage_kind paged = `Paged);
      apply_all mem ops;
      apply_all paged ops;
      Lazy_db.check paged;
      H.check ~ctx:(Printf.sprintf "paged seed %d" seed) (H.fingerprint mem) paged;
      (* Maintenance over the paged store: rebuild re-indexes into
         fresh pages and must change nothing observable (both sides
         rebuilt — the fingerprint includes the segment count). *)
      Lazy_db.rebuild mem;
      Lazy_db.rebuild paged;
      Lazy_db.check paged;
      H.check ~ctx:(Printf.sprintf "paged rebuild seed %d" seed) (H.fingerprint mem) paged;
      Lazy_db.close paged;
      Lazy_db.close mem)
    [ 3; 5; 8 ]

(* qcheck: random schedules, paged differentially equal to mem, with a
   mid-schedule save/load round-trip through the paged backend. *)
let qcheck_paged_differential =
  QCheck.Test.make ~count:12 ~name:"paged backend fingerprint-identical (random schedules)"
    QCheck.(pair small_nat (bool))
    (fun (seed0, big) ->
      let seed = 1000 + seed0 in
      let target_ops = if big then 24 else 10 in
      let ops = H.gen_ops ~seed ~target_ops in
      let mem = Lazy_db.create ~index_attributes:true ~storage:`Mem () in
      let paged = Lazy_db.create ~index_attributes:true ~storage:`Paged () in
      apply_all mem ops;
      apply_all paged ops;
      let fp = H.fingerprint mem in
      H.check ~ctx:(Printf.sprintf "qcheck seed %d" seed) fp paged;
      (* Round-trip the paged database through save/load (indexes are
         rebuilt into a fresh paged store on load). *)
      H.with_dir "paged_qc" (fun dir ->
          let file = Filename.concat dir "paged.snap" in
          Lazy_db.save paged file;
          let re = Lazy_db.load ~storage:`Paged file in
          Lazy_db.check re;
          H.check ~ctx:(Printf.sprintf "qcheck reload seed %d" seed) fp re;
          Lazy_db.close re);
      Lazy_db.close paged;
      Lazy_db.close mem;
      true)

(* --- durable paged databases: checkpoint attach and rebuild ---------- *)

let build_paged_durable dir ~seed ~target_ops ~checkpoint_at =
  let ops = H.gen_ops ~seed ~target_ops in
  let db =
    Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) ~storage:`Paged ()
  in
  List.iteri
    (fun i op ->
      H.apply db op;
      if i = checkpoint_at then Lazy_db.checkpoint db)
    ops;
  Lazy_db.checkpoint db;
  let fp = H.fingerprint db in
  Lazy_db.close db;
  (ops, fp)

let test_db_recover_attach () =
  H.with_dir "paged_attach" (fun dir ->
      let _, fp = build_paged_durable dir ~seed:21 ~target_ops:16 ~checkpoint_at:7 in
      let db, report = Lazy_db.recover ~storage:`Paged dir in
      (* The final checkpoint emptied the WAL: recovery must attach the
         durable paged indexes rather than rebuild (LSNs match). *)
      check_int "nothing to replay" 0 report.Lxu_storage.Recovery.records_applied;
      check_bool "paged after recover" true (Lazy_db.storage_kind db = `Paged);
      check_string "attached state" fp (H.fingerprint db);
      Lazy_db.check db;
      (* The recovered handle keeps working: update, checkpoint, recover
         again. *)
      Lazy_db.insert db ~gp:0 "<re><co>x</co></re>";
      let fp2 = H.fingerprint db in
      Lazy_db.checkpoint db;
      Lazy_db.close db;
      let db2, _ = Lazy_db.recover ~storage:`Paged dir in
      check_string "second recover" fp2 (H.fingerprint db2);
      Lazy_db.close db2)

let test_db_recover_suffix_replay () =
  H.with_dir "paged_suffix" (fun dir ->
      (* Checkpoint mid-stream, then more updates land in the WAL: the
         page store's LSN is behind the WAL tail, so recovery attaches
         the checkpointed trees and replays the suffix on top. *)
      let ops = H.gen_ops ~seed:22 ~target_ops:16 in
      let db =
        Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) ~storage:`Paged ()
      in
      List.iteri
        (fun i op ->
          H.apply db op;
          if i = 7 then Lazy_db.checkpoint db)
        ops;
      let fp = H.fingerprint db in
      Lazy_db.close db;
      let db2, report = Lazy_db.recover ~storage:`Paged dir in
      check_bool "replayed a suffix" true (report.Lxu_storage.Recovery.records_applied > 0);
      check_string "suffix state" fp (H.fingerprint db2);
      Lazy_db.check db2;
      Lazy_db.close db2)

let test_db_recover_rebuild_paths () =
  (* Every way the pages file can be unusable must degrade to a sound
     rebuild, never a wrong answer. *)
  let scenarios =
    [
      ("pages file deleted", fun dir -> Sys.remove (Filename.concat dir "pages"));
      ( "pages file truncated to garbage",
        fun dir -> H.write_file (Filename.concat dir "pages") "not a page store" );
      ( "both meta pages smashed",
        fun dir ->
          (* Preserve the header, destroy both meta slots: no valid
             meta survives, so open fails and recovery resets. *)
          let path = Filename.concat dir "pages" in
          let data = H.read_file path in
          let page = 8192 in
          if String.length data >= 3 * page then begin
            let b = Bytes.of_string data in
            Bytes.fill b page (2 * page) '\xff';
            H.write_file path (Bytes.to_string b)
          end );
      ( "recovered with mem storage instead",
        fun _ -> () (* exercised below via ~storage:`Mem *) );
    ]
  in
  List.iter
    (fun (name, corrupt) ->
      H.with_dir "paged_rebuild" (fun dir ->
          let _, fp = build_paged_durable dir ~seed:23 ~target_ops:14 ~checkpoint_at:6 in
          corrupt dir;
          let storage = if name = "recovered with mem storage instead" then `Mem else `Paged in
          let db, _ = Lazy_db.recover ~storage dir in
          check_string name fp (H.fingerprint db);
          Lazy_db.check db;
          Lazy_db.close db))
    scenarios

let test_db_crash_between_checkpoints () =
  H.with_dir "paged_mismatch" (fun dir ->
      (* A snapshot written without the page checkpoint (simulating the
         crash window): the LSNs mismatch, recovery must rebuild. *)
      let ops = H.gen_ops ~seed:24 ~target_ops:12 in
      let db =
        Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) ~storage:`Paged ()
      in
      apply_all db ops;
      Lazy_db.checkpoint db;
      Lazy_db.insert db ~gp:0 "<post><ckpt>y</ckpt></post>";
      let fp = H.fingerprint db in
      (match Lazy_db.log db with
      | Some lg ->
        (* Snapshot at the WAL head, page store left at the old LSN. *)
        let s = Option.get (Lazy_db.wal_dir db) in
        ignore s;
        Lxu_storage.Recovery.write_snapshot
          ~path:(Lxu_storage.Wal_store.snapshot_path dir)
          ~lsn:(List.length ops + 1) lg
      | None -> assert false);
      Lazy_db.close db;
      let db2, _ = Lazy_db.recover ~storage:`Paged dir in
      check_string "mismatched lsn rebuilds" fp (H.fingerprint db2);
      Lazy_db.check db2;
      Lazy_db.close db2)

(* --- beyond-RAM: document >> pool budget ----------------------------- *)

let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    f

let test_beyond_ram () =
  with_env "LXU_POOL_BYTES" "65536" (fun () ->
      H.with_dir "paged_beyond" (fun dir ->
          (* Generated XML appended until the document is well past
             2x the 64 KiB pool. *)
          let frag seed = Lxu_workload.Generator.generate_text ~seed ~target_elements:80 () in
          let mem = Lazy_db.create ~storage:`Mem () in
          let paged = Lazy_db.create ~storage:`Paged ~durability:(`Wal dir) () in
          let bytes = ref 0 and seed = ref 0 in
          while !bytes < 160_000 do
            incr seed;
            let f = frag !seed in
            Lazy_db.insert mem ~gp:!bytes f;
            Lazy_db.insert paged ~gp:!bytes f;
            bytes := !bytes + String.length f
          done;
          let stats = Option.get (Lazy_db.page_stats paged) in
          check_bool "doc exceeds 2x pool budget"
            true
            (Lazy_db.doc_length paged > 2 * stats.Page_store.pool.Buffer_pool.max_bytes);
          (* Planned twig queries agree with the in-memory engine. *)
          let twig db = Path_query.eval_string db "//a//b/c" in
          check_bool "twig matches mem" true (twig mem = twig paged);
          let join db = fst (Lazy_db.query db ~anc:"a" ~desc:"d" ()) in
          check_bool "join matches mem" true (join mem = join paged);
          let fp = H.fingerprint mem in
          H.check ~ctx:"beyond-RAM ingest" fp paged;
          (* Checkpoint, crash-recover, still identical. *)
          Lazy_db.checkpoint paged;
          Lazy_db.close paged;
          let re, _ = Lazy_db.recover ~storage:`Paged dir in
          H.check ~ctx:"beyond-RAM recover" fp re;
          check_bool "twig matches after recover" true (twig mem = twig re);
          Lazy_db.check re;
          Lazy_db.close re;
          Lazy_db.close mem))

let suite =
  [
    Alcotest.test_case "paged bptree vs Map (random ops)" `Quick test_bptree_differential;
    Alcotest.test_case "paged bptree bulk load + batch merge" `Quick test_bptree_bulk;
    Alcotest.test_case "pinned pool overruns, never blocks" `Quick test_pool_overrun;
    Alcotest.test_case "checkpoint + reopen" `Quick test_checkpoint_reopen;
    Alcotest.test_case "crash rolls back to checkpoint" `Quick test_crash_rollback;
    Alcotest.test_case "torn page detected by checksum" `Quick test_torn_page_detected;
    Alcotest.test_case "torn meta falls back a generation" `Quick test_torn_meta_fallback;
    Alcotest.test_case "paged db = mem db (seeds 3, 5, 8)" `Quick test_db_paged_matches_mem;
    QCheck_alcotest.to_alcotest qcheck_paged_differential;
    Alcotest.test_case "recover attaches at matching lsn" `Quick test_db_recover_attach;
    Alcotest.test_case "recover attaches + replays wal suffix" `Quick test_db_recover_suffix_replay;
    Alcotest.test_case "recover rebuilds on damaged page store" `Quick test_db_recover_rebuild_paths;
    Alcotest.test_case "lsn mismatch forces rebuild" `Quick test_db_crash_between_checkpoints;
    Alcotest.test_case "beyond-RAM ingest + query + recover" `Quick test_beyond_ram;
  ]
