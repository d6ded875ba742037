(* Figure 16: elapsed time of inserting one segment into documents of
   growing size — the lazy approach (LD) against the traditional
   relabeling approach.  The inserted segment lands mid-document so
   that roughly half the existing element labels must shift under the
   traditional scheme (the paper's average case); LD shifts only
   per-segment bookkeeping. *)

open Lxu_workload
open Lxu_seglog
open Lxu_baselines

let new_segment =
  "<person id=\"pnew\"><name>new arrival</name><emailaddress>x@example.com</emailaddress><phone>+1 (555) 0100000</phone></person>"

(* A valid mid-document insertion point: right after the opening tag of
   the <people> element (any person can be inserted there). *)
let insertion_point text =
  let needle = "<people>" in
  let n = String.length needle in
  let rec find i = if String.sub text i n = needle then i + n else find (i + 1) in
  find 0

let run () =
  Bench_util.header
    "Figure 16: time to insert one segment vs document size (LD vs traditional)";
  Bench_util.columns [ 12; 12; 10; 12; 14; 14 ]
    [ "doc bytes"; "elements"; "segs"; "LD ms"; "trad ms"; "relabelled" ];
  List.iter
    (fun persons ->
      let text = Xmark.generate_text ~persons ~items:(persons / 2) ~seed:16 () in
      let gp = insertion_point text in
      let edits = Chopper.chop ~text ~segments:100 Chopper.Balanced in
      (* LD: median over fresh logs (insert mutates, so rebuild between
         repetitions; building is outside the timed section). *)
      let ld_ms =
        let samples =
          List.init 3 (fun _ ->
              let log = Bench_util.load_log Update_log.Lazy_dynamic edits in
              snd (Bench_util.time_ms (fun () -> ignore (Update_log.insert log ~gp new_segment))))
          |> List.sort compare
        in
        List.nth samples 1
      in
      let store = Bench_util.load_store [ (0, text) ] in
      let trad_ms =
        snd (Bench_util.time_ms (fun () -> Interval_store.insert store ~gp new_segment))
      in
      let relabelled = Interval_store.last_relabel_count store in
      Bench_util.columns [ 12; 12; 10; 12; 14; 14 ]
        [
          string_of_int (String.length text);
          string_of_int (Interval_store.element_count store);
          "100";
          Bench_util.fmt_ms ld_ms;
          Bench_util.fmt_ms trad_ms;
          string_of_int relabelled;
        ])
    (List.map (fun n -> n * Bench_util.scale) [ 250; 500; 1000; 2000; 4000 ])
