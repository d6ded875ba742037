open Lazy_xml
module Rng = Lxu_workload.Rng

type report = {
  reads_checked : int;
  epochs_published : int;
  elapsed_s : float;
}

let n_readers = 3

let run_one ~seed ~target_ops () =
  let started = Lxu_util.Deadline.now () in
  let ops = Crash_harness.gen_ops ~seed ~target_ops in
  let n = List.length ops in
  (* The failing epoch's prefix is the schedule's first [epoch] ops. *)
  let fail ~epoch fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "mvcc seed %d epoch %d: %s" seed epoch msg))
      fmt
  in
  Crash_harness.with_replay ~seed ~target_ops (fun () -> ops) @@ fun () ->
  (* A reader pinned at epoch k must observe the reference's state at
     LSN k, byte for byte. *)
  let reference = Crash_harness.Reference.of_ops ops in
  let t = Shared_db.create ~index_attributes:true () in
  let reads_checked = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader_errors = Array.make n_readers None in
  (* Readers race the mutator: each iteration pins the newest
     published snapshot and proves it byte-identical to the replay
     frozen at that epoch — no torn reads (a mid-transaction state
     would fingerprint as a different prefix), no time-travel (epochs
     must be monotone per reader), and repeatable reads (a pin held
     across two fingerprints sees the same bytes even while the
     mutator streams on). *)
  let reader r =
    Domain.spawn (fun () ->
        try
          let rng = Rng.create ((seed * 97) + r) in
          let last_epoch = ref (-1) in
          let iteration () =
            let s = Shared_db.begin_snapshot t in
            Fun.protect
              ~finally:(fun () -> Shared_db.end_snapshot s)
              (fun () ->
                let e = Shared_db.snapshot_epoch s in
                let db = Shared_db.snapshot_db s in
                if e < !last_epoch then
                  fail ~epoch:e "time-travel: reader %d pinned %d after %d" r e !last_epoch;
                last_epoch := e;
                if e < 0 || e > n then fail ~epoch:e "pinned epoch outside schedule (0..%d)" n;
                if not (Lazy_db.is_snapshot db) then fail ~epoch:e "pinned database not frozen";
                let fp = Crash_harness.fingerprint db in
                let expected = Crash_harness.Reference.at reference e in
                if fp <> expected then
                  fail ~epoch:e "isolation violated\n  expected %S\n  got      %S" expected fp;
                (* Repeatable read under the same pin. *)
                if Rng.int rng 4 = 0 then begin
                  let fp' = Crash_harness.fingerprint db in
                  if fp' <> fp then
                    fail ~epoch:e "pinned snapshot changed under a held pin\n  first %S\n  then  %S"
                      fp fp'
                end;
                (* Snapshots are read-only. *)
                if Rng.int rng 8 = 0 then begin
                  match Lazy_db.insert db ~gp:0 "<a/>" with
                  | () -> fail ~epoch:e "snapshot accepted an insert"
                  | exception Invalid_argument _ -> ()
                end;
                Atomic.incr reads_checked)
          in
          while not (Atomic.get stop) do
            iteration ()
          done;
          (* One more look after the mutator finished, so every reader
             also verifies the final epoch. *)
          iteration ()
        with exn -> reader_errors.(r) <- Some exn)
  in
  let readers = Array.init n_readers reader in
  (* The mutator (this domain) is writer and packer in one seeded
     schedule: [gen_ops] mixes inserts, removes, subtree packs and
     rebuilds.  Ops are committed in groups of 1–3 under one
     [Shared_db.write] hold, so readers must never pin the epochs
     inside a group — only its boundary.  The grouping is drawn from
     [seed] alone, so a reported seed replays it. *)
  let rng = Rng.create ((seed * 31) + 1) in
  let remaining = ref ops in
  let applied = ref 0 in
  while !remaining <> [] do
    let g = 1 + Rng.int rng 3 in
    let group, rest =
      let rec take k = function
        | x :: tl when k > 0 ->
          let taken, rest = take (k - 1) tl in
          (x :: taken, rest)
        | l -> ([], l)
      in
      take g !remaining
    in
    remaining := rest;
    Shared_db.write t (fun db -> List.iter (Crash_harness.apply db) group);
    applied := !applied + List.length group;
    let e = Shared_db.current_epoch t in
    if e <> !applied then
      fail ~epoch:!applied "published epoch %d after %d committed ops" e !applied;
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  Array.iter (function Some exn -> raise exn | None -> ()) reader_errors;
  (* Quiescence: with every pin dropped, exactly the current version
     remains. *)
  (match Shared_db.mvcc_stats t with
  | None -> fail ~epoch:n "no mvcc stats for a lazy engine"
  | Some s ->
    if s.Shared_db.pinned <> 0 then fail ~epoch:n "%d pins leaked" s.Shared_db.pinned;
    if s.Shared_db.versions <> 1 then
      fail ~epoch:n "%d versions retained at quiescence" s.Shared_db.versions;
    if s.Shared_db.published_epoch <> n then
      fail ~epoch:n "final published epoch %d, expected %d" s.Shared_db.published_epoch n);
  let final = Shared_db.read t (fun db -> Crash_harness.fingerprint db) in
  let expected = Crash_harness.Reference.at reference n in
  if final <> expected then
    fail ~epoch:n "final state diverges from the full replay\n  expected %S\n  got      %S" expected
      final;
  Shared_db.read t Lazy_db.check;
  {
    reads_checked = Atomic.get reads_checked;
    epochs_published = n;
    elapsed_s = Lxu_util.Deadline.now () -. started;
  }

let run_matrix ~seeds ~target_ops =
  List.iter
    (fun seed ->
      let r = run_one ~seed ~target_ops () in
      Printf.printf "mvcc seed %d: %d reads checked over %d epochs in %.2fs\n%!" seed
        r.reads_checked r.epochs_published r.elapsed_s)
    seeds

(* --- with_snapshot at epoch E = replay of the first E ops ------------- *)

let prop_snapshot_replay ~count =
  QCheck2.Test.make ~name:"with_snapshot = prefix replay (LD/LS, packs + rebuilds)" ~count
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let target_ops = 20 in
      let ops = Crash_harness.gen_ops ~seed ~target_ops in
      Crash_harness.with_replay ~seed ~target_ops (fun () -> ops) @@ fun () ->
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
              if Lazy_db.epoch db <> i + 1 then
                failwith
                  (Printf.sprintf "seed %d %s: epoch %d after op %d" seed ename (Lazy_db.epoch db) i);
              pinned := (i + 1, Lazy_db.snapshot db) :: !pinned)
            ops;
          (* The oracle: one replay of the schedule on the same engine,
             fingerprinted at every epoch. *)
          let reference = Crash_harness.Reference.of_ops ~engine ops in
          (* Every held snapshot still passes the full invariant check
             (a node or tag list the live side changed in place would
             break it) and still fingerprints as its own epoch. *)
          List.iter
            (fun (e, snap) ->
              let ctx = Printf.sprintf "seed %d %s: snapshot at epoch %d" seed ename e in
              (try Lazy_db.check snap with Failure msg -> failwith (ctx ^ ": " ^ msg));
              Crash_harness.Reference.check reference ~ctx e snap)
            !pinned;
          (* with_snapshot at the final epoch = the live state. *)
          Lazy_db.with_snapshot db (fun s ->
              Crash_harness.Reference.check reference
                ~ctx:(Printf.sprintf "seed %d %s: final snapshot" seed ename)
                (List.length ops) s))
        [ (Lazy_db.LD, "LD"); (Lazy_db.LS, "LS") ];
      true)
