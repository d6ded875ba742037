(* The slow acceptance tier:

   - the full crash-recovery matrix: >= 30 randomized workloads on LD
     and again on LS, each crashed at every WAL record boundary and
     under injected torn / bit-flipped / duplicated tails, and rerun
     with the WAL refusing the write of each operation in turn (a full
     disk), every recovery coming back with the engine it was written
     with;
   - the full overload chaos matrix: LD x several seeds, each run
     asserting
     typed shedding, bounded cancellation, a torn-state-free
     post-pressure fingerprint, and a mixed read/write phase with
     parked snapshot pins under an insert_many stream;
   - the full MVCC snapshot-isolation matrix: several seeds, every
     pinned read proved byte-identical to a
     single-threaded replay frozen at its epoch, with zero leaked
     versions at quiescence;
   - the full parser mutation-fuzz corpus, and 3,000 mutants each of a
     resealed snapshot payload and of a WAL image: every one loads (or
     recovers) into a store that passes [Lazy_db.check], or is refused
     with [Failure] or [Sys_error]; and 3,000 resealed snapshots with
     one segment's gp moved by 1-3 bytes, every one refused;
   - the full maintenance chaos matrix: churn workloads interleaved
     with background maintenance, crashed at every maintenance-step
     and checkpoint-truncation boundary (plus torn/bit-flipped tails
     and backup restores), and a point-in-time restore sweep proving
     every committed prefix state reconstructible;
   - the translation stress case: one segment with >= 5,000 child
     segments and a tombstoned parent, joins and paths checked against
     the materialized oracle;
   - the translation properties at 2,000 cases each: the cursor against
     [Er_node.global_extent_span], cached translators against fresh
     builds after random edits and freezes;
   - the snapshot-replay property at 2,000 schedules: every snapshot
     held across the rest of an LD or LS schedule passes
     [Update_log.check] and fingerprints as a replay of its prefix;
   - the predicate-free chain property at 2,000 cases: on random
     chains the default plan, the naive join composition and the tree
     oracle agree, and each plan's count equals its eval's length, on
     LD/LS x Mem/Paged stores under inserts, removes and packs, and on
     snapshots pinned while the live store keeps writing;
   - the predicated-twig property at 2,000 cases: on random twigs with
     one-step and nested predicates the default plan's restricted
     joins, the naive composition and the tree oracle agree (counts
     included), on LD/LS x Mem/Paged, live and pinned;
   - the frame-sweep property at 2,000 cases: many child segments at
     increasing, equal and interleaved hooks under nested same-tag
     ancestors, with text tombstoned around the hooks, joined by
     [run], [count] and [semi] and checked against the naive join.
   - snapshot bytes on perfbench's two XMark stores: pinned length
     and trailer checksum, and save . load . save byte-identical.

   Quick versions of all four run under the default test alias; this
   tier is:

     dune build @slow

   It runs in a fresh temp directory and fails if any file is left in
   it.  LXU_CRASH_SEEDS / LXU_CRASH_OPS / LXU_OVERLOAD_SEEDS /
   LXU_MVCC_SEEDS / LXU_MVCC_OPS / LXU_FUZZ_SEEDS / LXU_MAINT_SEEDS /
   LXU_MAINT_OPS override the matrix sizes. *)

let int_env name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with _ -> default)
  | None -> default

let () =
  Lxu_crash_harness.Crash_harness.with_fresh_tmpdir @@ fun () ->
  let seeds = int_env "LXU_CRASH_SEEDS" 48 in
  let target_ops = int_env "LXU_CRASH_OPS" 48 in
  Printf.printf
    "crash matrix: %d workloads x ~%d ops on LD and on LS, every record boundary + 3 faults + a refused WAL write at every op each\n%!"
    seeds target_ops;
  List.iter
    (fun engine ->
      Lxu_crash_harness.Crash_harness.run_matrix ~engine
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~target_ops ~wal_fail_every:1 ())
    [ Lazy_xml.Lazy_db.LD; Lazy_xml.Lazy_db.LS ];
  Printf.printf "crash matrix: all %d workloads recovered byte-identically on both engines\n%!" seeds;
  let overload_seeds = int_env "LXU_OVERLOAD_SEEDS" 6 in
  Printf.printf "overload matrix: LD x %d seeds\n%!" overload_seeds;
  Lxu_crash_harness.Overload_harness.run_matrix ~seeds:(List.init overload_seeds (fun i -> i + 1));
  Printf.printf "overload matrix: no hangs, typed shedding, fingerprints identical\n%!";
  let mvcc_seeds = int_env "LXU_MVCC_SEEDS" 8 in
  let mvcc_ops = int_env "LXU_MVCC_OPS" 40 in
  Printf.printf "mvcc matrix: %d seeds x ~%d ops\n%!" mvcc_seeds mvcc_ops;
  Lxu_crash_harness.Mvcc_harness.run_matrix
    ~seeds:(List.init mvcc_seeds (fun i -> i + 1))
    ~target_ops:mvcc_ops;
  Printf.printf "mvcc matrix: zero isolation divergences, zero leaked versions\n%!";
  let fuzz_seeds = int_env "LXU_FUZZ_SEEDS" 40 in
  Lxu_crash_harness.Parser_fuzz.run_corpus
    ~seeds:(List.init fuzz_seeds (fun i -> (i * 7919) + 1))
    ~rounds:250;
  Printf.printf "parser fuzz: %d seeds x 250 mutants, parser stayed total\n%!" fuzz_seeds;
  Lxu_crash_harness.Format_fuzz.run_corpus ~seed:2 ~rounds:3_000;
  let maint_seeds = int_env "LXU_MAINT_SEEDS" 12 in
  let maint_ops = int_env "LXU_MAINT_OPS" 36 in
  Printf.printf
    "maint matrix: %d churn workloads x ~%d ops, crash at every maintenance boundary + pitr sweep\n%!"
    maint_seeds maint_ops;
  Lxu_crash_harness.Maint_harness.run_matrix
    ~seeds:(List.init maint_seeds (fun i -> i + 1))
    ~target_ops:maint_ops;
  Printf.printf "maint matrix: all recoveries fingerprint-identical, every prefix restorable\n%!";
  let children = Translate_stress.run ~groups:5_000 in
  Printf.printf "translate stress: %d child segments under one parent, answers match the oracle\n%!"
    children;
  let cases = 2_000 in
  List.iter
    (fun t -> QCheck2.Test.check_exn ~rand:(Random.State.make [| 21 |]) t)
    Lxu_props.Translate_props.
      [
        cursor_sweep ~count:cases;
        cursor_walk ~count:cases;
        cached_translators ~count:cases;
      ];
  Printf.printf
    "translate properties: cursor and cached translators agree with their references, %d cases each\n%!"
    cases;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 22 |])
    (Lxu_crash_harness.Mvcc_harness.prop_snapshot_replay ~count:cases);
  Printf.printf "snapshot replay: %d schedules, every held snapshot checked and equal to its prefix\n%!"
    cases;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 23 |])
    (Lxu_props.Partition_props.all_plans_agree ~count:cases);
  Printf.printf
    "predicate-free chains: %d cases, both plans equal to the oracle (counts equal to evals) on LD/LS x Mem/Paged and pinned snapshots\n%!"
    cases;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 24 |])
    (Lxu_props.Partition_props.predicated_twigs_agree ~count:cases);
  Printf.printf
    "predicated twigs: %d cases, both plans equal to the tree oracle on LD/LS x Mem/Paged and pinned snapshots\n%!"
    cases;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 25 |])
    (Lxu_props.Sweep_props.hooks_agree ~count:cases);
  if !Lxu_props.Sweep_props.nested = 0 then failwith "frame sweep: no case nests D segments";
  Printf.printf
    "frame sweep: %d cases (%d with nested D segments), count/query/semi equal to the naive \
     join on LD/LS, live and pinned\n%!"
    !Lxu_props.Sweep_props.cases !Lxu_props.Sweep_props.nested;
  Snapshot_golden.run ();
  Printf.printf "snapshot bytes: XMark stores of 2,000 and 4,000 persons save to their pinned bytes and re-save identically\n%!"
