(* Figure 13: join time over the same document chopped into a varying
   number of segments, LD vs STD, nested and balanced ER-trees.  STD
   is insensitive to the chopping; LD pays segment-list overhead as
   segments multiply — the paper's observed crossover.  A packed
   series (the whole document re-indexed as one segment, the §6
   mitigation) is reported once for reference.  The paper's claim is
   LD below STD: every row where it fails, the packed segment included,
   prints a [deviation:] line. *)

open Lxu_workload
open Lxu_seglog

let doc_elements = 14_000 * Bench_util.scale
let spine_depth = 400

let params =
  {
    Generator.tags = [| "a"; "b"; "c"; "d"; "e"; "f" |];
    max_depth = 10;
    max_fanout = 4;
    text_chance_pct = 25;
    text_len = 10;
  }

let run () =
  Bench_util.header "Figure 13: join time vs number of segments (same document)";
  let text =
    Generator.generate_with_spine_text ~params ~seed:13 ~target_elements:doc_elements
      ~spine_depth ()
  in
  Printf.printf "document: %d bytes, %d elements; query a//b\n" (String.length text)
    (Lxu_xml.Tree.element_count (Lxu_xml.Parser.parse_fragment text));
  let anc = "a" and desc = "b" in
  let whole = Bench_util.load_log Update_log.Lazy_dynamic [ (0, text) ] in
  let std_ms = Bench_util.time_std whole ~anc ~desc in
  let packed_ms = Bench_util.time_ld whole ~anc ~desc in
  Printf.printf "STD (chopping-independent): %s ms; packed single segment: %s ms\n\n"
    (Bench_util.fmt_ms std_ms) (Bench_util.fmt_ms packed_ms);
  let deviations = ref [] in
  let check what ld_ms =
    if ld_ms >= std_ms then
      deviations :=
        Printf.sprintf "deviation: %s LD %s ms >= STD %s ms" what (Bench_util.fmt_ms ld_ms)
          (Bench_util.fmt_ms std_ms)
        :: !deviations
  in
  check "packed single segment" packed_ms;
  List.iter
    (fun shape ->
      Printf.printf "-- %s chopping --\n"
        (match shape with Chopper.Nested -> "nested" | Chopper.Balanced -> "balanced");
      Bench_util.columns [ 10; 10; 10; 12; 12 ]
        [ "requested"; "actual"; "cross%"; "LD ms"; "STD ms" ];
      List.iter
        (fun n ->
          let edits = Chopper.chop ~text ~segments:n shape in
          let log = Bench_util.load_log Update_log.Lazy_dynamic edits in
          let _, stats = Lxu_join.Lazy_join.query log ~anc ~desc () in
          let total =
            stats.Lxu_join.Lazy_join.cross_pairs + stats.Lxu_join.Lazy_join.in_pairs
          in
          let crosspct =
            if total = 0 then 0 else 100 * stats.Lxu_join.Lazy_join.cross_pairs / total
          in
          let ld_ms = Bench_util.time_ld log ~anc ~desc in
          check
            (Printf.sprintf "%s %d segments"
               (match shape with Chopper.Nested -> "nested" | Chopper.Balanced -> "balanced")
               n)
            ld_ms;
          Bench_util.columns [ 10; 10; 10; 12; 12 ]
            [
              string_of_int n;
              string_of_int (Update_log.segment_count log);
              string_of_int crosspct;
              Bench_util.fmt_ms ld_ms;
              Bench_util.fmt_ms std_ms;
            ])
        [ 20; 60; 100; 180; 260; 340 ])
    [ Chopper.Balanced; Chopper.Nested ];
  List.iter print_endline (List.rev !deviations)
