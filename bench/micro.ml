(* Bechamel micro-benchmarks: one Test.make per figure's core
   operation, measuring steady-state cost with OLS fits.  These
   complement the wall-clock tables with allocation-aware numbers. *)

open Bechamel
open Toolkit
open Lxu_seglog

let joinmix_log shape =
  let spec =
    { Lxu_workload.Joinmix.segments = 100; pairs_per_segment = 20; cross_percent = 40; shape }
  in
  let schedule = Lxu_workload.Joinmix.generate spec in
  Bench_util.load_log Update_log.Lazy_dynamic schedule.Lxu_workload.Joinmix.edits

let test_fig11_log_insert_remove =
  (* Insert + remove round trip keeps the structure stable across runs. *)
  let log = Bench_util.load_log Update_log.Lazy_dynamic (Fig11.schedule `Balanced 100) in
  let frag = "<t0><t1/></t0>" in
  let gp = Update_log.doc_length log / 2 / String.length Fig11.fragment * String.length Fig11.fragment in
  Test.make ~name:"fig11/16: update-log insert+remove"
    (Staged.stage (fun () ->
         ignore (Update_log.insert log ~gp frag);
         Update_log.remove log ~gp ~len:(String.length frag)))

let test_fig12_lazy_join =
  let log = joinmix_log Lxu_workload.Joinmix.Balanced in
  Update_log.prepare_for_query log;
  Test.make ~name:"fig12/13/15: lazy-join A//D"
    (Staged.stage (fun () -> ignore (Lxu_join.Lazy_join.query log ~anc:"A" ~desc:"D" ())))

let test_fig12_std_join =
  let spec =
    {
      Lxu_workload.Joinmix.segments = 100;
      pairs_per_segment = 20;
      cross_percent = 40;
      shape = Lxu_workload.Joinmix.Balanced;
    }
  in
  let schedule = Lxu_workload.Joinmix.generate spec in
  let store = Bench_util.load_store schedule.Lxu_workload.Joinmix.edits in
  let a = Lxu_baselines.Interval_store.elements store ~tag:"A" in
  let d = Lxu_baselines.Interval_store.elements store ~tag:"D" in
  Test.make ~name:"fig12/13/15: stack-tree-desc A//D"
    (Staged.stage (fun () -> ignore (Lxu_baselines.Stack_tree_desc.join ~anc:a ~desc:d ())))

let test_fig16_store_insert_remove =
  let text = Lxu_workload.Xmark.generate_text ~persons:300 ~seed:9 () in
  let store = Bench_util.load_store [ (0, text) ] in
  let frag = "<person id=\"pz\"><phone>1</phone></person>" in
  let gp =
    let needle = "<people>" in
    let n = String.length needle in
    let rec find i = if String.sub text i n = needle then i + n else find (i + 1) in
    find 0
  in
  Test.make ~name:"fig16: traditional relabel insert+remove"
    (Staged.stage (fun () ->
         Lxu_baselines.Interval_store.insert store ~gp frag;
         Lxu_baselines.Interval_store.remove store ~gp ~len:(String.length frag)))

let test_fig17_crt_solve =
  let primes = Lxu_baselines.Prime_gen.create () in
  let pairs = List.init 10 (fun i -> (i, Lxu_baselines.Prime_gen.nth primes (i + 2000))) in
  Test.make ~name:"fig17: CRT solve (one PRIME group, k=10)"
    (Staged.stage (fun () -> ignore (Lxu_baselines.Crt.solve pairs)))

let test_substrate_parse =
  let text = Lxu_workload.Generator.generate_text ~seed:3 ~target_elements:500 () in
  Test.make ~name:"substrate: xml parse (500 elements)"
    (Staged.stage (fun () -> ignore (Lxu_xml.Parser.parse_fragment text)))

let tests =
  Test.make_grouped ~name:"micro"
    [
      test_fig11_log_insert_remove;
      test_fig12_lazy_join;
      test_fig12_std_join;
      test_fig16_store_insert_remove;
      test_fig17_crt_solve;
      test_substrate_parse;
    ]

let run () =
  Bench_util.header "Bechamel micro-benchmarks (ns/run, OLS fit)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-48s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-48s (no estimate)\n" name)
    results
