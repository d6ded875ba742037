(* Figure 17: per-element insertion cost of the lazy approach (LD and
   LS) against the PRIME immutable labeling baseline.
   (a) varying the number of elements in the inserted segment,
   (b) varying the number of distinct tag names in it,
   (c) LD cost vs the number of existing segments, balanced and
       nested ER-trees. *)

open Lxu_seglog

(* A flat segment of [elements] elements cycling [tags] tag names. *)
let fragment ~elements ~tags =
  let buf = Buffer.create (elements * 6) in
  for i = 0 to elements - 1 do
    Buffer.add_string buf (Printf.sprintf "<g%d/>" (i mod tags))
  done;
  Buffer.contents buf

(* Base document: [segments] segments shaped balanced or nested (the
   Figure 11 worst-case segments, which contain every tag). *)
let base_schedule shape segments = Fig11.schedule shape segments

(* Median per-element insertion time into a fresh log each round. *)
let lazy_per_element mode shape segments ~elements ~tags =
  let edits = base_schedule shape segments in
  let frag = fragment ~elements ~tags in
  let samples =
    List.init 9 (fun _ ->
        let log = Bench_util.load_log mode edits in
        let gp = Fig_workload.segment_boundary log in
        snd (Bench_util.time_ms (fun () -> ignore (Update_log.insert log ~gp frag))))
    |> List.sort compare
  in
  List.nth samples 4 /. float_of_int elements

(* Per-element PRIME insertion: [elements] middle insertions into an
   existing document order of [base] nodes. *)
let prime_per_element ~k ~base ~elements =
  let open Lxu_baselines in
  let t = Prime_label.create ~k ~capacity:(base + elements + 8) () in
  let root = Prime_label.append t ~parent:None in
  for _ = 1 to base - 1 do
    ignore (Prime_label.append t ~parent:(Some root))
  done;
  let _, ms =
    Bench_util.time_ms (fun () ->
        for _ = 1 to elements do
          ignore
            (Prime_label.insert t ~parent:(Some root)
               ~order_pos:(Prime_label.size t / 2))
        done)
  in
  ms /. float_of_int elements

let fmt us_ms = Printf.sprintf "%.4f" us_ms

let run_a () =
  Bench_util.header
    "Figure 17(a): per-element insert time (ms) vs elements per segment";
  Printf.printf "(100 balanced segments; 5 distinct tags; PRIME base: 2000 nodes)\n";
  Bench_util.columns [ 10; 12; 12; 14; 14 ]
    [ "elements"; "LS"; "LD"; "PRIME k=10"; "PRIME k=100" ];
  List.iter
    (fun elements ->
      Bench_util.columns [ 10; 12; 12; 14; 14 ]
        [
          string_of_int elements;
          fmt (lazy_per_element Update_log.Lazy_static `Balanced 100 ~elements ~tags:5);
          fmt (lazy_per_element Update_log.Lazy_dynamic `Balanced 100 ~elements ~tags:5);
          fmt (prime_per_element ~k:10 ~base:2000 ~elements);
          fmt (prime_per_element ~k:100 ~base:2000 ~elements);
        ])
    [ 5; 10; 20; 40; 80 ]

let run_b () =
  Bench_util.header
    "Figure 17(b): per-element insert time (ms) vs distinct tag names";
  Printf.printf "(100 balanced segments; 40 elements per segment)\n";
  Bench_util.columns [ 10; 12; 12; 14 ] [ "tags"; "LS"; "LD"; "PRIME k=10" ];
  List.iter
    (fun tags ->
      Bench_util.columns [ 10; 12; 12; 14 ]
        [
          string_of_int tags;
          fmt (lazy_per_element Update_log.Lazy_static `Balanced 100 ~elements:40 ~tags);
          fmt (lazy_per_element Update_log.Lazy_dynamic `Balanced 100 ~elements:40 ~tags);
          fmt (prime_per_element ~k:10 ~base:2000 ~elements:40);
        ])
    [ 1; 2; 4; 6; 8 ]

let run_c () =
  Bench_util.header
    "Figure 17(c): LD per-element insert time (ms) vs existing segments";
  Printf.printf "(20 elements, 5 tags per inserted segment)\n";
  Bench_util.columns [ 10; 14; 14 ] [ "segments"; "balanced"; "nested" ];
  List.iter
    (fun segments ->
      Bench_util.columns [ 10; 14; 14 ]
        [
          string_of_int segments;
          fmt (lazy_per_element Update_log.Lazy_dynamic `Balanced segments ~elements:20 ~tags:5);
          fmt (lazy_per_element Update_log.Lazy_dynamic `Nested segments ~elements:20 ~tags:5);
        ])
    [ 50; 100; 150; 200; 250; 300 ]
