open Lazy_xml
module Rng = Lxu_workload.Rng
module Wal = Lxu_storage.Wal
module Deadline = Lxu_util.Deadline

type report = {
  ok : int;
  overloaded : int;
  timed_out : int;
  cancelled : int;
  max_cancel_latency_s : float;
  elapsed_s : float;
}

(* Per-client attempt tallies.  Each client owns its record (one
   domain each), so plain mutation is race-free; the coordinator reads
   them only after joining. *)
type tally = {
  mutable t_ok : int;
  mutable t_overl : int;
  mutable t_timeo : int;
  mutable t_canc : int;
}

let tally () = { t_ok = 0; t_overl = 0; t_timeo = 0; t_canc = 0 }

let note t = function
  | Ok _ -> t.t_ok <- t.t_ok + 1
  | Error (Governor.Overloaded _) -> t.t_overl <- t.t_overl + 1
  | Error (Governor.Timed_out _) -> t.t_timeo <- t.t_timeo + 1
  | Error (Governor.Cancelled _) -> t.t_canc <- t.t_canc + 1

(* Query-visible state: the crash harness's fingerprint without the
   physical segment count, which this differential never compared. *)
let fingerprint db = Crash_harness.fingerprint ~segments:false db

let n_victims = 2
let n_readers = 3
let n_writers = 3
let reader_iters = 24
let writer_iters = 16

let run_one ~seed () =
  let setup = Crash_harness.gen_ops ~seed ~target_ops:30 in
  (* Updates that actually applied, appended under the writer lock —
     so list order is the writers' serialization order. *)
  let applied = ref [] in
  let fail fmt =
    Printf.ksprintf (fun msg -> failwith (Printf.sprintf "overload seed %d: %s" seed msg)) fmt
  in
  Crash_harness.with_replay ~seed ~target_ops:30 (fun () -> setup @ List.rev !applied) @@ fun () ->
  let started = Deadline.now () in
  (* Tight bounds on purpose: the harness must provoke shedding, not
     avoid it. *)
  let config =
    { Governor.max_readers = n_victims + 1; max_writer_queue = 2; default_deadline_s = None }
  in
  let gov = Governor.create ~config ~index_attributes:true () in
  (* Preload through the raw Shared_db, outside governor accounting. *)
  List.iter (fun op -> Shared_db.write (Governor.shared gov) (fun db -> Crash_harness.apply db op))
    setup;
  (* --- parked readers: admitted, then spin on the guard until the
     coordinator fires their token ------------------------------------ *)
  let tokens = Array.init n_victims (fun _ -> Deadline.Cancel.create ()) in
  let parked = Atomic.make 0 in
  let victim_tallies = Array.init n_victims (fun _ -> tally ()) in
  let victim_results = Array.make n_victims None in
  let victims =
    Array.init n_victims (fun i ->
        Domain.spawn (fun () ->
            let t = victim_tallies.(i) in
            (* Retry admission (tallying each shed attempt) so the
               parked phase survives transient slot contention. *)
            let rec admit () =
              let r =
                Governor.read gov ~cancel:tokens.(i) (fun guard _db ->
                    Atomic.incr parked;
                    while true do
                      Deadline.check_opt guard
                    done)
              in
              note t r;
              match r with
              | Error (Governor.Overloaded _) ->
                Unix.sleepf 0.001;
                admit ()
              | other -> other
            in
            victim_results.(i) <- Some (admit (), Deadline.now ())))
  in
  let wait_deadline = Deadline.after 30. in
  while Atomic.get parked < n_victims && not (Deadline.expired wait_deadline) do
    Domain.cpu_relax ()
  done;
  if Atomic.get parked < n_victims then fail "parked readers failed to start within 30s";
  (* --- pressure clients --------------------------------------------- *)
  let reader_tallies = Array.init n_readers (fun _ -> tally ()) in
  let readers =
    Array.init n_readers (fun i ->
        Domain.spawn (fun () ->
            let rng = Rng.create ((seed * 31) + i) in
            let t = reader_tallies.(i) in
            for _ = 1 to reader_iters do
              let anc = Rng.pick rng Crash_harness.vocabulary in
              let desc = Rng.pick rng Crash_harness.vocabulary in
              match Rng.int rng 3 with
              | 0 ->
                (* A read that would run forever: only its 2ms
                   deadline (or the 250ms backstop, if guards ever
                   regressed) stops it. *)
                note t
                  (Governor.read gov ~deadline_s:0.002 (fun guard db ->
                       let backstop = Deadline.now () +. 0.25 in
                       let rec spin () =
                         Deadline.check_opt guard;
                         ignore (Lazy_db.count db ~anc ~desc ());
                         if Deadline.now () < backstop then spin ()
                       in
                       spin ()))
              | 1 -> note t (Governor.count gov ~deadline_s:0.5 ~anc ~desc ())
              | _ ->
                note t (Governor.path_count gov ~deadline_s:0.5 (Printf.sprintf "//%s//%s" anc desc))
            done))
  in
  let writer_tallies = Array.init n_writers (fun _ -> tally ()) in
  let writers =
    Array.init n_writers (fun i ->
        Domain.spawn (fun () ->
            let rng = Rng.create ((seed * 173) + i) in
            let t = writer_tallies.(i) in
            for _ = 1 to writer_iters do
              (* The op is generated under the write lock, against the
                 state it will apply to — every op valid by
                 construction even under concurrent writers. *)
              let attempt () =
                let r =
                  Governor.write gov (fun _guard db ->
                      let roll = Rng.int rng 100 in
                      let op =
                        if roll < 30 && Lazy_db.doc_length db > 0 then begin
                          match Lxu_props.Text_model.element_extents (Lazy_db.text db) with
                          | [] -> Wal.Insert { gp = 0; text = Rng.pick rng Crash_harness.fragments }
                          | extents ->
                            let s, e = List.nth extents (Rng.int rng (List.length extents)) in
                            Wal.Remove { gp = s; len = e - s }
                        end
                        else
                          let gp = if Rng.bool rng then 0 else Lazy_db.doc_length db in
                          Wal.Insert { gp; text = Rng.pick rng Crash_harness.fragments }
                      in
                      Crash_harness.apply db op;
                      applied := op :: !applied)
                in
                note t r;
                r
              in
              if Rng.bool rng then
                ignore (Governor.retry ~attempts:4 ~base_ms:0.2 ~max_ms:2. ~rng attempt)
              else ignore (attempt ())
            done))
  in
  (* Let the pressure run against the parked readers, then fire the
     tokens mid-flight. *)
  Unix.sleepf 0.03;
  let fired = Array.map (fun tok -> let t = Deadline.now () in Deadline.Cancel.cancel ~reason:"chaos" tok; t) tokens in
  Array.iter Domain.join victims;
  Array.iter Domain.join readers;
  Array.iter Domain.join writers;
  (* --- mixed read/write phase ---------------------------------------- *)
  (* One writer streams [insert_many] batches while readers keep
     querying and parked pins hold their
     epochs across the whole stream.  Readers must never observe a
     [Dirty_tag_list]: every snapshot they pin is query-ready by
     construction. *)
  let shared = Governor.shared gov in
  let pins =
    Array.init 2 (fun _ ->
        let s = Shared_db.begin_snapshot shared in
        (s, Shared_db.snapshot_epoch s, fingerprint (Shared_db.snapshot_db s)))
  in
  let mixed_writer_tally = tally () in
  let mixed_reader_tallies = Array.init n_readers (fun _ -> tally ()) in
  let dirty_seen = Atomic.make 0 in
  let mixed_stop = Atomic.make false in
  let mixed_readers =
    Array.init n_readers (fun i ->
        Domain.spawn (fun () ->
            let rng = Rng.create ((seed * 613) + i) in
            let t = mixed_reader_tallies.(i) in
            while not (Atomic.get mixed_stop) do
              let anc = Rng.pick rng Crash_harness.vocabulary in
              let desc = Rng.pick rng Crash_harness.vocabulary in
              (try
                 if Rng.bool rng then note t (Governor.count gov ~deadline_s:0.5 ~anc ~desc ())
                 else
                   note t
                     (Governor.path_count gov ~deadline_s:0.5
                        (Printf.sprintf "//%s//%s" anc desc))
               with Lxu_seglog.Tag_list.Dirty_tag_list _ -> Atomic.incr dirty_seen)
            done))
  in
  let mixed_batches = 6 in
  let mixed_batch_len = 8 in
  let mixed_rng = Rng.create (seed * 1201) in
  for _ = 1 to mixed_batches do
    (* All-at-gp-0 batches are valid by construction no matter what
       already applied. *)
    let batch =
      List.init mixed_batch_len (fun _ -> (0, Rng.pick mixed_rng Crash_harness.fragments))
    in
    let attempt () =
      let r = Governor.insert_many gov batch in
      note mixed_writer_tally r;
      (match r with
      | Ok () ->
        List.iter (fun (gp, text) -> applied := Wal.Insert { gp; text } :: !applied) batch
      | Error _ -> ());
      r
    in
    ignore (Governor.retry ~attempts:4 ~base_ms:0.2 ~max_ms:2. ~rng:mixed_rng attempt)
  done;
  Atomic.set mixed_stop true;
  Array.iter Domain.join mixed_readers;
  if Atomic.get dirty_seen > 0 then
    fail "%d reads observed Dirty_tag_list during the insert_many stream" (Atomic.get dirty_seen);
  (* The parked pins held their epoch — and their bytes — across the
     whole write stream. *)
  Array.iter
    (fun (s, epoch0, fp0) ->
      if Shared_db.snapshot_epoch s <> epoch0 then
        fail "parked pin moved from epoch %d to %d" epoch0 (Shared_db.snapshot_epoch s);
      let fp = fingerprint (Shared_db.snapshot_db s) in
      if fp <> fp0 then
        fail "parked pin at epoch %d changed under the insert_many stream\n  was %S\n  now %S"
          epoch0 fp0 fp;
      Shared_db.end_snapshot s)
    pins;
  (* --- assertions ---------------------------------------------------- *)
  let max_cancel_latency_s = ref 0. in
  Array.iteri
    (fun i result ->
      match result with
      | None -> fail "parked reader %d never returned a result" i
      | Some (Error (Governor.Cancelled "chaos"), returned) ->
        max_cancel_latency_s := Float.max !max_cancel_latency_s (returned -. fired.(i))
      | Some (Error r, _) ->
        fail "parked reader %d: expected Cancelled \"chaos\", got %s" i
          (Governor.rejection_to_string r)
      | Some (Ok (), _) -> fail "parked reader %d returned Ok despite the fired token" i)
    victim_results;
  if !max_cancel_latency_s > 5. then
    fail "cancellation took %.3fs to be observed" !max_cancel_latency_s;
  let tallies =
    Array.concat
      [ victim_tallies; reader_tallies; writer_tallies; [| mixed_writer_tally |];
        mixed_reader_tallies ]
    |> Array.fold_left
         (fun (ok, ov, ti, ca) t -> (ok + t.t_ok, ov + t.t_overl, ti + t.t_timeo, ca + t.t_canc))
         (0, 0, 0, 0)
  in
  let ok, overloaded, timed_out, cancelled = tallies in
  let s = Governor.stats gov in
  if s.Governor.completed_reads + s.Governor.completed_writes <> ok then
    fail "governor completed %d ops, clients saw %d Ok"
      (s.Governor.completed_reads + s.Governor.completed_writes)
      ok;
  if s.Governor.rejected_overload <> overloaded then
    fail "governor shed %d Overloaded, clients saw %d" s.Governor.rejected_overload overloaded;
  if s.Governor.rejected_timeout <> timed_out then
    fail "governor shed %d Timed_out, clients saw %d" s.Governor.rejected_timeout timed_out;
  if s.Governor.rejected_cancel <> cancelled then
    fail "governor shed %d Cancelled, clients saw %d" s.Governor.rejected_cancel cancelled;
  if timed_out = 0 then fail "deadline pressure produced no Timed_out rejection";
  if cancelled < n_victims then fail "only %d Cancelled rejections for %d victims" cancelled n_victims;
  (* Torn-state differential: replay exactly the updates that
     reported success onto an unpressured database. *)
  let final = Shared_db.read (Governor.shared gov) (fun db -> fingerprint db) in
  let reference = Lazy_db.create ~index_attributes:true () in
  List.iter (Crash_harness.apply reference) setup;
  List.iter (Crash_harness.apply reference) (List.rev !applied);
  let expected = fingerprint reference in
  if final <> expected then
    fail "post-pressure state diverges from the unpressured replay\n  expected %S\n  got      %S"
      expected final;
  {
    ok;
    overloaded;
    timed_out;
    cancelled;
    max_cancel_latency_s = !max_cancel_latency_s;
    elapsed_s = Deadline.now () -. started;
  }

let run_matrix ~seeds =
  List.iter
    (fun seed ->
      let r = run_one ~seed () in
      Printf.printf
        "overload LD seed %d: ok=%d shed(overload=%d timeout=%d cancel=%d) \
         cancel_latency=%.4fs in %.2fs\n\
         %!"
        seed r.ok r.overloaded r.timed_out r.cancelled r.max_cancel_latency_s r.elapsed_s)
    seeds
