(* MVCC read-latency benchmark: one closed-loop reader is timed over
   alternating read-only and mixed phases of the same shared lazy
   database; in the mixed phases a single writer streams batch-64
   [insert_many] groups at a fixed pace.  Readers run lock-free
   against pinned snapshots, so the headline number is the mixed-phase
   p99 staying within 25% of the read-only p99 — under the pre-MVCC
   rw-lock every committing batch (including its snapshot publication)
   stalled the whole reader pool for the write's duration.

   Protocol notes, all in service of measuring the database rather
   than the host:

   - One read request is the full 5x5 vocabulary sweep (25 count
     queries) run twice under a single snapshot pin, so a request is
     long enough (tens of ms) that its latency is dominated by join
     work, not by the scheduler quantum of small shared hosts — and
     the double sweep doubles as a repeatable-read check surface.
   - The writer inserts a tag outside the reader vocabulary, so the
     join inputs stay constant-size across the stream and the
     comparison isolates concurrency overhead from workload growth.
     It is paced (a short sleep between batches) because the claim
     under test is "writes do not stall readers", not "reads survive
     losing the CPU to a spin loop"; and every 8th batch it packs its
     newest garden chunk ([pack_subtree] over the fresh segments),
     the paper's maintenance story running inside the write stream,
     keeping snapshot publication from growing with stream length.
   - Phases alternate read-only/mixed over [rounds] short rounds and
     the headline p50/p99 pool all samples of a kind, so intermittent
     host stalls (hypervisor steal, GC slices) land on both kinds in
     proportion instead of deciding a single phase's tail — the same
     hostile-host reasoning behind [Bench_util.measure_min].

   Beyond the console table, the run writes BENCH_mvcc.json (or the
   --json path): the MVCC entry of the repository's perf trajectory,
   gated by scripts/bench_gate.sh on the mixed/read-only p99 ratio.
   See EXPERIMENTS.md for the schema. *)

open Lazy_xml
module Generator = Lxu_workload.Generator

let rounds = 6
let requests_per_phase = 60
let writer_batch = 64
let writer_pause_s = 0.020
let pack_every = 8
let vocabulary = [| "a"; "b"; "c"; "d"; "e" |]

let pairs =
  Array.to_list vocabulary
  |> List.concat_map (fun anc ->
         Array.to_list vocabulary |> List.map (fun desc -> (anc, desc)))

let sweep db =
  for _ = 1 to 2 do
    List.iter (fun (anc, desc) -> ignore (Lazy_db.count db ~anc ~desc ())) pairs
  done

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(min (n - 1) (p * (n - 1) / 100))

type phase = {
  round : int;
  mixed : bool;
  p50_ms : float;
  p99_ms : float;
  batches_written : int;
  elapsed_s : float;
  samples : float array;  (* sorted per-request latencies, ms *)
}

(* One timed phase: the reader domain issues [requests_per_phase]
   sweep requests back-to-back, each under one snapshot pin; with
   [with_writer] a paced writer streams insert_many batches (packing
   its garden every [pack_every]-th) until the reader is done. *)
let run_phase t ~round ~with_writer =
  let lat = Array.make requests_per_phase 0. in
  let stop = Atomic.make false in
  let writer =
    if not with_writer then None
    else
      Some
        (Domain.spawn (fun () ->
             let batch = List.init writer_batch (fun _ -> (0, "<w/>")) in
             let chunk_len = pack_every * writer_batch * String.length "<w/>" in
             let n = ref 0 in
             while not (Atomic.get stop) do
               Shared_db.write t (fun db -> Lazy_db.insert_many db batch);
               incr n;
               if !n mod pack_every = 0 then
                 Shared_db.write t (fun db -> Lazy_db.pack_subtree db ~gp:0 ~len:chunk_len);
               Unix.sleepf writer_pause_s
             done;
             !n))
  in
  let t0 = Unix.gettimeofday () in
  let reader =
    Domain.spawn (fun () ->
        for k = 0 to requests_per_phase - 1 do
          let q0 = Unix.gettimeofday () in
          Shared_db.read t sweep;
          lat.(k) <- (Unix.gettimeofday () -. q0) *. 1000.
        done)
  in
  Domain.join reader;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  let batches_written = match writer with Some d -> Domain.join d | None -> 0 in
  Array.sort compare lat;
  {
    round;
    mixed = with_writer;
    p50_ms = percentile lat 50;
    p99_ms = percentile lat 99;
    batches_written;
    elapsed_s;
    samples = lat;
  }

let run () =
  Bench_util.header
    (Printf.sprintf
       "MVCC snapshot reads: lock-free reader, read-only vs one writer streaming batch-%d inserts"
       writer_batch);
  let t = Shared_db.create ~index_attributes:true () in
  let text =
    Generator.generate_text
      ~params:{ Generator.default_params with Generator.tags = vocabulary }
      ~seed:42
      ~target_elements:(8_000 * Bench_util.scale)
      ()
  in
  Shared_db.insert t ~gp:0 text;
  for _ = 1 to 3 do
    Shared_db.read t sweep
  done;
  Printf.printf
    "document: %d bytes, %d elements; request = 2x 25-pair sweep, %d requests x %d rounds per kind\n\n"
    (String.length text)
    (Shared_db.read t Lazy_db.element_count)
    requests_per_phase rounds;
  let widths = [ 7; 11; 10; 10; 10; 10 ] in
  Bench_util.columns widths [ "round"; "phase"; "p50 ms"; "p99 ms"; "batches"; "epoch" ];
  let phases = ref [] in
  for round = 1 to rounds do
    List.iter
      (fun with_writer ->
        let ph = run_phase t ~round ~with_writer in
        phases := ph :: !phases;
        Bench_util.columns widths
          [
            string_of_int round;
            (if ph.mixed then "mixed" else "read-only");
            Bench_util.fmt_ms ph.p50_ms;
            Bench_util.fmt_ms ph.p99_ms;
            string_of_int ph.batches_written;
            string_of_int (Shared_db.current_epoch t);
          ])
      [ false; true ]
  done;
  let phases = List.rev !phases in
  Bench_util.sep ();
  let pooled mixed =
    let all =
      Array.concat (List.filter_map (fun ph -> if ph.mixed = mixed then Some ph.samples else None) phases)
    in
    Array.sort compare all;
    all
  in
  let baseline = pooled false and mixed_pool = pooled true in
  let baseline_p99 = percentile baseline 99 in
  let mixed_p99 = percentile mixed_pool 99 in
  let ratio = mixed_p99 /. baseline_p99 in
  Printf.printf
    "pooled over %d requests per kind:\n  read-only p50=%.3f p99=%.3f ms | mixed p50=%.3f \
     p99=%.3f ms\n  mixed p99 = %.2fx read-only p99 (acceptance: within 1.25x)\n"
    (Array.length baseline) (percentile baseline 50) baseline_p99 (percentile mixed_pool 50)
    mixed_p99 ratio;
  (match Shared_db.mvcc_stats t with
  | Some m ->
    Printf.printf "quiescence: %d version(s), %d pin(s), epoch %d, floor %d\n" m.Shared_db.versions
      m.Shared_db.pinned m.Shared_db.published_epoch m.Shared_db.floor
  | None -> ());
  let json =
    Bench_util.(
      J_obj
        [
          ("bench", J_str "mvcc");
          ("engine", J_str "LD");
          ("requests_per_phase", J_int requests_per_phase);
          ("rounds", J_int rounds);
          ("writer_batch", J_int writer_batch);
          ("writer_pause_s", J_float writer_pause_s);
          ("baseline_p50_ms", J_float (percentile baseline 50));
          ("baseline_p99_ms", J_float baseline_p99);
          ("mixed_p50_ms", J_float (percentile mixed_pool 50));
          ("mixed_p99_ms", J_float mixed_p99);
          ("p99_ratio", J_float ratio);
          ( "phases",
            J_list
              (List.map
                 (fun ph ->
                   J_obj
                     [
                       ("round", J_int ph.round);
                       ("phase", J_str (if ph.mixed then "mixed" else "read-only"));
                       ("p50_ms", J_float ph.p50_ms);
                       ("p99_ms", J_float ph.p99_ms);
                       ("batches_written", J_int ph.batches_written);
                       ("elapsed_s", J_float ph.elapsed_s);
                     ])
                 phases) );
        ])
  in
  Bench_util.write_json (Bench_util.json_out ~default:"BENCH_mvcc.json") json
