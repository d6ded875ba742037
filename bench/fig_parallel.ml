(* Segment-parallel Lazy-Join benchmark: sweeps 1/2/4/8 domains over
   the XMark-like super document chopped into 500+ balanced segments
   (the workload of Figures 14-15 scaled up in segment count) and
   reports the median wall-clock of the five paper queries per domain
   count, plus pairs/sec and the speedup over 1 domain.

   Beyond the console table, the run writes a machine-readable record
   to BENCH_join.json (or the --json path): the seed entry of the
   repository's perf trajectory.  See EXPERIMENTS.md for the schema. *)

open Lxu_workload
open Lxu_seglog
open Lxu_util

let persons = 2_000 * Bench_util.scale
let target_segments = 500 * Bench_util.scale

(* The benchmark document and its edit schedule; shared with the paged
   benchmark (bench/fig_paged.ml) so both measure the same workload. *)
let workload () =
  let text = Xmark.generate_text ~persons ~items:(persons * 3 / 5) ~seed:42 () in
  (* Raise the cross-segment share the way fig14_15 does: extra watch
     and interest segments inserted inside existing elements. *)
  let extra_inside marker fragment =
    let m = String.length marker in
    let points = ref [] in
    let k = ref 0 in
    for i = 0 to String.length text - m do
      if String.sub text i m = marker then begin
        if !k mod 12 = 0 then points := (String.index_from text i '>' + 1) :: !points;
        incr k
      end
    done;
    List.map (fun gp -> (gp, fragment)) (List.sort (fun a b -> compare b a) !points)
  in
  let watch = "<watch open_auction=\"oa0\"/>" in
  let interest = "<interest category=\"extra\"/>" in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  let edits =
    Chopper.chop ~text ~segments:target_segments Chopper.Balanced
    @ extra_inside "<watches>" (rep 16 watch)
    @ extra_inside "<profile " (rep 8 interest)
  in
  (text, edits)

let run () =
  Bench_util.header
    (Printf.sprintf "Parallel Lazy-Join: XMark workload, %d+ segments, 1/2/4/8 domains"
       target_segments);
  let text, edits = workload () in
  let log = Bench_util.load_log Update_log.Lazy_dynamic edits in
  Update_log.prepare_for_query log;
  let segments = Update_log.segment_count log in
  let elements = Update_log.element_count log in
  Printf.printf "document: %d bytes, %d segments, %d elements (host: %d recommended domain(s))\n\n"
    (String.length text) segments elements
    (Domain.recommended_domain_count ());
  let total_pairs =
    List.fold_left
      (fun acc (_, anc, desc) ->
        let pairs, _ = Lxu_join.Lazy_join.run log ~anc ~desc () in
        acc + Array.length pairs)
      0 Xmark.queries
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  Bench_util.columns [ 10; 14; 14; 14 ] [ "domains"; "median ms"; "pairs/sec"; "speedup" ];
  let series =
    List.map
      (fun d ->
        let pool = Domain_pool.create ~size:d () in
        let per_query =
          List.map
            (fun (name, anc, desc) ->
              (name, Bench_util.measure (fun () ->
                   ignore (Lxu_join.Lazy_join.run ~pool log ~anc ~desc ()))))
            Xmark.queries
        in
        Domain_pool.shutdown pool;
        let total_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 per_query in
        (d, total_ms, per_query))
      domain_counts
  in
  let base_ms = match series with (_, ms, _) :: _ -> ms | [] -> 0.0 in
  let rows =
    List.map
      (fun (d, total_ms, per_query) ->
        let pairs_per_sec =
          if total_ms > 0.0 then float_of_int total_pairs /. (total_ms /. 1000.0) else 0.0
        in
        let speedup = if total_ms > 0.0 then base_ms /. total_ms else 0.0 in
        Bench_util.columns [ 10; 14; 14; 14 ]
          [
            string_of_int d;
            Bench_util.fmt_ms total_ms;
            Printf.sprintf "%.0f" pairs_per_sec;
            Printf.sprintf "%.2fx" speedup;
          ];
        (d, total_ms, pairs_per_sec, speedup, per_query))
      series
  in
  let speedup_at_4 =
    List.fold_left (fun acc (d, _, _, s, _) -> if d = 4 then s else acc) 1.0 rows
  in
  let cores = Domain.recommended_domain_count () in
  let note =
    if cores <= 1 then
      Printf.sprintf
        "host exposes a single core (Domain.recommended_domain_count = %d): extra \
         domains only add scheduling overhead, so the >=1.5x target at 4 domains is \
         unreachable on this machine; the numbers document that ceiling"
        cores
    else if speedup_at_4 >= 1.5 then "meets the >=1.5x-at-4-domains target"
    else
      Printf.sprintf
        "below the 1.5x-at-4-domains target on a %d-core host; see per-query medians"
        cores
  in
  Printf.printf "\n%s\n" note;
  let open Bench_util in
  let json =
    J_obj
      [
        ("bench", J_str "fig_parallel");
        ("schema_version", J_int 1);
        ( "workload",
          J_obj
            [
              ("generator", J_str "xmark+chopper");
              ("doc_bytes", J_int (String.length text));
              ("segments", J_int segments);
              ("elements", J_int elements);
              ("total_pairs", J_int total_pairs);
              ( "queries",
                J_list
                  (List.map (fun (n, a, d) -> J_str (Printf.sprintf "%s:%s//%s" n a d))
                     Xmark.queries) );
            ] );
        ( "machine",
          J_obj
            [
              ("recommended_domains", J_int cores);
              ("ocaml", J_str Sys.ocaml_version);
              ( "lxu_domains_env",
                match Domain_pool.env_domains () with
                | Some d -> J_int d
                | None -> J_null );
            ] );
        ( "series",
          J_list
            (List.map
               (fun (d, total_ms, pps, speedup, per_query) ->
                 J_obj
                   [
                     ("domains", J_int d);
                     ("median_ms", J_float total_ms);
                     ("pairs_per_sec", J_float pps);
                     ("speedup_vs_1", J_float speedup);
                     ( "queries",
                       J_list
                         (List.map
                            (fun (name, ms) ->
                              J_obj [ ("name", J_str name); ("median_ms", J_float ms) ])
                            per_query) );
                   ])
               rows) );
        ("speedup_at_4_domains", J_float speedup_at_4);
        ("meets_1_5x_at_4", J_bool (speedup_at_4 >= 1.5));
        ("notes", J_str note);
      ]
  in
  write_json (json_out ~default:"BENCH_join.json") json
