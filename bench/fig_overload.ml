(* Overload benchmark: a governed database under a closed-loop client
   sweep at 1x / 4x / 16x the read-admission capacity.  Each client
   domain issues governed count queries back-to-back; the governor
   sheds what does not fit.  Reported per load level: attempts, shed
   rate, and the p50/p99 latency of the queries that completed — the
   graceful-degradation claim in numbers (latency of admitted work
   stays flat while the shed rate absorbs the excess).

   Beyond the console table, the run writes BENCH_overload.json (or
   the --json path): the overload entry of the repository's perf
   trajectory.  See EXPERIMENTS.md for the schema. *)

open Lazy_xml
module Generator = Lxu_workload.Generator
module Rng = Lxu_workload.Rng

let max_readers = 2
let multipliers = [ 1; 4; 16 ]
let requests_per_client = 120 * Bench_util.scale
let vocabulary = [| "a"; "b"; "c"; "d"; "e" |]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(min (n - 1) (p * (n - 1) / 100))

type level = {
  multiplier : int;
  clients : int;
  attempts : int;
  completed : int;
  shed : int;
  shed_rate : float;
  p50_ms : float;
  p99_ms : float;
  elapsed_s : float;
}

let run_level gov ~multiplier =
  let clients = multiplier * max_readers in
  let latencies = Array.make clients [] in
  let sheds = Array.make clients 0 in
  let t0 = Unix.gettimeofday () in
  let domains =
    Array.init clients (fun i ->
        Domain.spawn (fun () ->
            let rng = Rng.create ((multiplier * 1009) + i) in
            for _ = 1 to requests_per_client do
              let anc = Rng.pick rng vocabulary in
              let desc = Rng.pick rng vocabulary in
              let q0 = Unix.gettimeofday () in
              match Governor.count gov ~anc ~desc () with
              | Ok _ ->
                latencies.(i) <- ((Unix.gettimeofday () -. q0) *. 1000.) :: latencies.(i)
              | Error (Governor.Overloaded _) -> sheds.(i) <- sheds.(i) + 1
              | Error r -> failwith ("overload bench: " ^ Governor.rejection_to_string r)
            done))
  in
  Array.iter Domain.join domains;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list (Array.to_list latencies |> List.concat) in
  Array.sort compare lat;
  let shed = Array.fold_left ( + ) 0 sheds in
  let attempts = clients * requests_per_client in
  {
    multiplier;
    clients;
    attempts;
    completed = Array.length lat;
    shed;
    shed_rate = float_of_int shed /. float_of_int attempts;
    p50_ms = percentile lat 50;
    p99_ms = percentile lat 99;
    elapsed_s;
  }

let run () =
  Bench_util.header
    (Printf.sprintf "Overload shedding: %d read slots, closed-loop clients at 1x/4x/16x capacity"
       max_readers);
  let config = { Governor.max_readers; max_writer_queue = 8; default_deadline_s = None } in
  let gov = Governor.create ~config () in
  let text =
    Generator.generate_text
      ~params:{ Generator.default_params with Generator.tags = vocabulary }
      ~seed:42
      ~target_elements:(4_000 * Bench_util.scale)
      ()
  in
  (match Governor.write gov (fun _guard db -> Lazy_db.insert db ~gp:0 text) with
  | Ok () -> ()
  | Error r -> failwith ("overload bench setup: " ^ Governor.rejection_to_string r));
  Printf.printf "document: %d bytes, %d elements; %d requests per client\n\n" (String.length text)
    (Shared_db.read (Governor.shared gov) Lazy_db.element_count)
    requests_per_client;
  let widths = [ 6; 9; 10; 11; 10; 11; 11 ] in
  Bench_util.columns widths
    [ "load"; "clients"; "attempts"; "completed"; "shed%"; "p50 ms"; "p99 ms" ];
  let levels =
    List.map
      (fun multiplier ->
        let l = run_level gov ~multiplier in
        Bench_util.columns widths
          [
            Printf.sprintf "%dx" l.multiplier;
            string_of_int l.clients;
            string_of_int l.attempts;
            string_of_int l.completed;
            Printf.sprintf "%.1f" (100. *. l.shed_rate);
            Bench_util.fmt_ms l.p50_ms;
            Bench_util.fmt_ms l.p99_ms;
          ];
        l)
      multipliers
  in
  Bench_util.sep ();
  let json =
    Bench_util.(
      J_obj
        [
          ("bench", J_str "overload");
          ("engine", J_str "LD");
          ("max_readers", J_int max_readers);
          ("requests_per_client", J_int requests_per_client);
          ( "levels",
            J_list
              (List.map
                 (fun l ->
                   J_obj
                     [
                       ("multiplier", J_int l.multiplier);
                       ("clients", J_int l.clients);
                       ("attempts", J_int l.attempts);
                       ("completed", J_int l.completed);
                       ("shed", J_int l.shed);
                       ("shed_rate", J_float l.shed_rate);
                       ("p50_ms", J_float l.p50_ms);
                       ("p99_ms", J_float l.p99_ms);
                       ("elapsed_s", J_float l.elapsed_s);
                     ])
                 levels) );
        ])
  in
  Bench_util.write_json (Bench_util.json_out ~default:"BENCH_overload.json") json
