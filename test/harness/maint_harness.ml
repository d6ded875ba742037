open Lazy_xml
module Rng = Lxu_workload.Rng
module Wal = Lxu_storage.Wal
module Wal_store = Lxu_storage.Wal_store
module Sim_file = Lxu_storage.Sim_file
module Recovery = Lxu_storage.Recovery
module Text_model = Lxu_props.Text_model

(* Thresholds low enough that every job class actually fires inside a
   short schedule: packs after a handful of segments, a rolling
   checkpoint every few hundred WAL bytes, a backup shipment every few
   ticks. *)
let harness_config ~backup_dir =
  {
    Maintainer.default_config with
    pack_min_segments = 4;
    pack_min_depth = 3;
    checkpoint_wal_bytes = 512;
    backup_every = (match backup_dir with Some _ -> 3 | None -> 0);
    backup_dir;
  }

(* --- crash churn: kill the store at every maintenance boundary ------- *)

(* The churn schedule interleaves the generated update stream with a
   maintenance tick every [maint_every] ops.  Every op and every
   WAL-logged maintenance job is mirrored onto the reference replay,
   which records the fingerprint per committed LSN — so a recovery
   from {e any} crash image can be checked against the exact state its
   surviving WAL prefix promises. *)
let run_churn_crash_inner ~maint_every ~seed ~ops () =
  let reference = Crash_harness.Reference.create () in
  Crash_harness.with_dir "maintwal" @@ fun dir ->
  Crash_harness.with_dir "maintbak" @@ fun bdir ->
  let durable = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
  let m = Maintainer.of_db ~config:(harness_config ~backup_dir:(Some bdir)) durable in
  let recoveries = ref 0 in
  let capture () =
    let wal = Crash_harness.read_file (Wal_store.wal_path dir) in
    let sp = Wal_store.snapshot_path dir in
    let snap = if Sys.file_exists sp then Some (Crash_harness.read_file sp) else None in
    (snap, wal)
  in
  let expect_now ~ctx ?snapshot_bytes ~wal_bytes () =
    incr recoveries;
    let db, _ = Crash_harness.recover_image ~tag:"maint" ?snapshot_bytes ~wal_bytes () in
    Crash_harness.Reference.check reference ~ctx (Crash_harness.Reference.lsn reference) db
  in
  let rng = Rng.create ((seed * 104729) + 1) in
  List.iteri
    (fun i op ->
      Crash_harness.apply durable op;
      Crash_harness.Reference.apply reference op;
      if (i + 1) mod maint_every = 0 then begin
        let snap_pre, wal_pre = capture () in
        match Maintainer.tick m with
        | Maintainer.Idle | Maintainer.Busy | Maintainer.Shed _ -> ()
        | Maintainer.Ran job ->
          Crash_harness.Reference.mirror reference job;
          let ctx0 =
            Printf.sprintf "seed %d op %d job [%s]" seed (i + 1) (Maintainer.job_to_string job)
          in
          let snap_post, wal_post = capture () in
          (* Crash exactly at the step boundary. *)
          expect_now ~ctx:(ctx0 ^ " post") ?snapshot_bytes:snap_post ~wal_bytes:wal_post ();
          (match job with
          | Maintainer.Checkpoint _ ->
            (* The three checkpoint-truncation windows: before the
               snapshot rename landed, after it but before the WAL
               rotation (a resurrected pre-rotation log), and after
               both (= the post image above).  All must recover to
               the same state — a checkpoint changes nothing
               query-visible. *)
            expect_now ~ctx:(ctx0 ^ " pre-rename") ?snapshot_bytes:snap_pre ~wal_bytes:wal_pre ();
            expect_now ~ctx:(ctx0 ^ " resurrected-log") ?snapshot_bytes:snap_post
              ~wal_bytes:wal_pre ()
          | Maintainer.Backup { dir = b; lsn = blsn } ->
            (* The shipped backup restores to exactly the state it
               was taken at. *)
            incr recoveries;
            let log, _ = Wal_store.restore_to ~dir:b ~lsn:blsn in
            Crash_harness.Reference.check reference ~ctx:(ctx0 ^ " backup-restore") blsn
              (Lazy_db.of_log log)
          | _ -> ());
          (* Torn / bit-flipped tails on the crash image: recovery
             lands on some committed LSN and must reproduce exactly
             that state.  (Duplicated tails are the plain crash
             harness's department.) *)
          if String.length wal_post > Wal.header_bytes then begin
            let body_len = String.length wal_post - Wal.header_bytes in
            for _t = 1 to 2 do
              match Sim_file.random_fault rng ~len:body_len with
              | Sim_file.Duplicate_tail _ -> ()
              | fault ->
                incr recoveries;
                ignore
                  (Crash_harness.check_tail_fault ~ctx:(ctx0 ^ " fault") ~reference
                     ?snapshot_bytes:snap_post
                     ~head:(String.sub wal_post 0 Wal.header_bytes)
                     ~tail:(String.sub wal_post Wal.header_bytes body_len)
                     fault)
            done
          end
      end)
    ops;
  Lazy_db.close durable;
  let snap, wal = capture () in
  expect_now ~ctx:(Printf.sprintf "seed %d final" seed) ?snapshot_bytes:snap ~wal_bytes:wal ();
  !recoveries

let run_churn_crash ?(maint_every = 3) ~seed ~target_ops () =
  let ops = Crash_harness.gen_ops ~seed ~target_ops in
  Crash_harness.with_replay ~seed ~target_ops
    ~params:(Printf.sprintf " maint_every=%d" maint_every)
    (fun () -> ops)
    (run_churn_crash_inner ~maint_every ~seed ~ops)

(* --- point-in-time restore sweep ------------------------------------- *)

(* With checkpoint truncation disabled the live directory retains the
   full history, so {e every} committed prefix state must be
   reconstructible with [restore_to]; a final checkpoint then proves
   the documented bound (earlier states need a pre-checkpoint
   backup). *)
let run_restore_sweep_inner ~seed ~ops () =
  let reference = Crash_harness.Reference.create () in
  Crash_harness.with_dir "pitr" @@ fun dir ->
  let durable = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
  let cfg =
    {
      Maintainer.default_config with
      pack_min_segments = 4;
      pack_min_depth = 3;
      checkpoint_wal_bytes = max_int;
    }
  in
  let m = Maintainer.of_db ~config:cfg durable in
  List.iteri
    (fun i op ->
      Crash_harness.apply durable op;
      Crash_harness.Reference.apply reference op;
      if (i + 1) mod 4 = 0 then
        match Maintainer.tick m with
        | Maintainer.Ran job -> Crash_harness.Reference.mirror reference job
        | _ -> ())
    ops;
  Lazy_db.close durable;
  let last = Crash_harness.Reference.lsn reference in
  for l = 0 to last do
    let ctx = Printf.sprintf "seed %d restore lsn %d" seed l in
    let db, report = Lazy_db.restore_to ~lsn:l dir in
    if report.Recovery.last_lsn <> l then
      failwith (Printf.sprintf "%s: replay stopped at lsn %d" ctx report.Recovery.last_lsn);
    Crash_harness.Reference.check reference ~ctx l db
  done;
  (* Checkpointing bounds PITR exactly as documented. *)
  let db, _ = Lazy_db.recover dir in
  Lazy_db.checkpoint db;
  Lazy_db.close db;
  let db, _ = Lazy_db.restore_to ~lsn:last dir in
  Crash_harness.Reference.check reference
    ~ctx:(Printf.sprintf "seed %d post-checkpoint restore" seed)
    last db;
  if last > 0 then (
    match Lazy_db.restore_to ~lsn:(last - 1) dir with
    | exception Failure _ -> ()
    | _ ->
      failwith
        (Printf.sprintf "seed %d: restore below the checkpoint unexpectedly succeeded" seed));
  last + 1

let run_restore_sweep ~seed ~target_ops () =
  let ops = Crash_harness.gen_ops ~seed ~target_ops in
  Crash_harness.with_replay ~seed ~target_ops (fun () -> ops) (run_restore_sweep_inner ~seed ~ops)

(* --- churn performance: auto-maintenance vs. manual-only ------------- *)

type churn_perf = {
  latencies_ms : float array;  (** per-query, in schedule order *)
  queries : int;
  segments_end : int;
  er_depth_end : int;
  jobs_run : int;
  shed : int;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let p99 latencies =
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  percentile sorted 99.

let churn_fragments =
  [|
    "<a><b>t</b></a>";
    "<c><d/><e>u</e></c>";
    "<f g=\"v\"><h/></f>";
    "<b><c><d/></c></b>";
  |]

let churn_tags = [| "a"; "b"; "c"; "d"; "e"; "f"; "h" |]

(* One measured request: the full tag-pair count sweep, so each sample
   is dominated by join work rather than admission overhead. *)
let sweep db =
  Array.iter
    (fun anc -> Array.iter (fun desc -> ignore (Lazy_db.count db ~anc ~desc ())) churn_tags)
    churn_tags

(* A compressed week of FLUX-style churn: [epochs] rounds of governed
   inserts (at element boundaries of a text mirror, so every edit is
   valid by construction), occasional removes, then measured governed
   sweep requests.  [maintain = `Auto k] runs up to [k] maintenance
   jobs through the same governor in the idle gap between an epoch's
   churn and its queries; [`Manual] never maintains — the degradation
   baseline.  The schedule (text, edits, query mix) is identical for
   both modes: maintenance changes no query-visible state and draws
   nothing from the generator. *)
let run_churn_perf ~seed ~epochs ~maintain () =
  let rng = Rng.create seed in
  let gov = Governor.create () in
  (* The perf run gives the maintainer the strictest mandate — any
     subtree that drifts from single-segment is pack-eligible — so the
     steady state it defends is the day-one layout itself; the cost of
     that mandate is maintenance work in the (unmeasured) idle gap,
     which is exactly the trade the bench exists to show. *)
  let m =
    Maintainer.of_governor
      ~config:
        { Maintainer.default_config with pack_min_segments = 1; pack_min_depth = 2 }
      gov
  in
  let text = ref (Lxu_workload.Generator.generate_text ~seed ~target_elements:400 ()) in
  (match
     Governor.insert_many gov
       (Lxu_workload.Chopper.chop ~text:!text ~segments:24 Lxu_workload.Chopper.Balanced)
   with
  | Ok () -> ()
  | Error r -> failwith (Governor.rejection_to_string r));
  let lats = ref [] and queries = ref 0 and jobs = ref 0 in
  for _e = 1 to epochs do
    (* a burst of small inserts at random element boundaries *)
    for _k = 1 to 6 do
      match Text_model.element_extents !text with
      | [] -> ()
      | extents ->
        let s, _ = List.nth extents (Rng.int rng (List.length extents)) in
        let frag = Rng.pick rng churn_fragments in
        (match Governor.insert gov ~gp:s frag with
        | Ok () -> text := Text_model.splice !text ~gp:s frag
        | Error r -> failwith (Governor.rejection_to_string r))
    done;
    (* an occasional remove *)
    if Rng.int rng 100 < 40 then (
      match Text_model.element_extents !text with
      | [] -> ()
      | extents ->
        let s, e = List.nth extents (Rng.int rng (List.length extents)) in
        (match Governor.remove gov ~gp:s ~len:(e - s) () with
        | Ok () -> text := Text_model.cut !text ~gp:s ~len:(e - s)
        | Error r -> failwith (Governor.rejection_to_string r)));
    (* the idle gap: background maintenance runs before traffic
       returns *)
    (match maintain with
    | `Manual -> ()
    | `Auto k -> jobs := !jobs + Maintainer.run_until_idle ~max_steps:k m);
    (* measured governed sweep requests *)
    for _q = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      (match Governor.read gov (fun _ db -> sweep db) with
      | Ok () -> ()
      | Error r -> failwith (Governor.rejection_to_string r));
      lats := ((Unix.gettimeofday () -. t0) *. 1000.) :: !lats;
      incr queries
    done
  done;
  let segments_end, er_depth_end =
    match Governor.read gov (fun _ db -> Option.map Lxu_seglog.Update_log.frag_stats (Lazy_db.log db)) with
    | Ok (Some fs) ->
      (fs.Lxu_seglog.Update_log.live_segments, fs.Lxu_seglog.Update_log.er_depth)
    | _ -> (0, 0)
  in
  let st = Maintainer.stats m in
  ( {
      latencies_ms = Array.of_list (List.rev !lats);
      queries = !queries;
      segments_end;
      er_depth_end;
      jobs_run = !jobs;
      shed = st.Maintainer.shed;
    },
    !text,
    gov )

(* A freshly rebuilt single-segment store over [text], warmed so its
   one-time lazy relabeling is build cost, not measured latency — the
   "day one" baseline both churn modes are compared to. *)
let fresh_store text =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  if text <> "" then Lazy_db.insert db ~gp:0 text;
  sweep db;
  db

let fresh_baseline ~seed:_ ~queries text =
  let db = fresh_store text in
  Array.init queries (fun _ ->
      let t0 = Unix.gettimeofday () in
      sweep db;
      (Unix.gettimeofday () -. t0) *. 1000.)

(* Round-robin steady-state measurement: each round times one sweep
   request per store, so host weather (hypervisor steal, clock jitter)
   lands on every store in proportion instead of deciding one store's
   tail.  The major GC is settled before every sample: OCaml's
   incremental collector charges slices against {e subsequent}
   allocations, so without the barrier a heavy neighbour's sweep
   taxes the next store's tail with its own collection debt.  Returns
   one latency array per request thunk, in order. *)
let measure_interleaved ~rounds requests =
  let n = List.length requests in
  let out = Array.init n (fun _ -> Array.make rounds 0.) in
  for r = 0 to rounds - 1 do
    List.iteri
      (fun i req ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        req ();
        out.(i).(r) <- (Unix.gettimeofday () -. t0) *. 1000.)
      requests
  done;
  Array.to_list out

(* --- matrix entry point (the @slow tier) ----------------------------- *)

let run_matrix ~seeds ~target_ops =
  List.iter
    (fun seed ->
      let recoveries = run_churn_crash ~seed ~target_ops () in
      let swept = run_restore_sweep ~seed ~target_ops:(target_ops / 2) () in
      Printf.printf "maint matrix seed %d: %d crash recoveries ok, %d pitr states ok\n%!" seed
        recoveries swept)
    seeds
