(* The paper's Figure 14/15 setting, interactively: generate an
   XMark-like auction document, chop it into segments, load it into
   the two lazy engines and the traditional STD baseline (interval
   store + Stack-Tree-Desc), and compare the five queries.

   Run with:  dune exec examples/xmark_queries.exe *)

open Lazy_xml
open Lxu_workload

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let () =
  let persons = try int_of_string Sys.argv.(1) with _ -> 400 in
  Printf.printf "generating XMark-like document (%d persons)...\n%!" persons;
  let text = Xmark.generate_text ~persons ~seed:42 () in
  let edits = Chopper.chop ~text ~segments:100 Chopper.Balanced in
  Printf.printf "document: %d bytes, %d segments\n%!" (String.length text)
    (Chopper.segment_count edits);

  let load engine =
    let db = Lazy_db.create ~engine () in
    let (), ms = time (fun () -> List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits) in
    (db, ms)
  in
  let ld, ld_ms = load Lazy_db.LD in
  let ls, ls_ms = load Lazy_db.LS in
  let store = Lxu_labeling.Interval_store.create () in
  let (), std_ms =
    time (fun () ->
        List.iter (fun (gp, frag) -> Lxu_labeling.Interval_store.insert store ~gp frag) edits)
  in
  Printf.printf "load time: LD %.1f ms | LS %.1f ms | STD %.1f ms\n\n%!" ld_ms ls_ms std_ms;

  Printf.printf "%-4s %-20s %10s %12s %12s %12s\n" "id" "query" "pairs" "LD ms" "LS ms" "STD ms";
  List.iter
    (fun (name, anc, desc) ->
      let run db = time (fun () -> Lazy_db.count db ~anc ~desc ()) in
      let n_ld, t_ld = run ld in
      let n_ls, t_ls = run ls in
      let n_std, t_std =
        time (fun () ->
            let anc = Lxu_labeling.Interval_store.elements store ~tag:anc
            and desc = Lxu_labeling.Interval_store.elements store ~tag:desc in
            (snd (Lxu_join.Stack_tree_desc.join ~anc ~desc ())).Lxu_join.Stack_tree_desc.pairs)
      in
      assert (n_ld = n_ls && n_ls = n_std);
      Printf.printf "%-4s %-20s %10d %12.2f %12.2f %12.2f\n" name
        (anc ^ "//" ^ desc) n_ld t_ld t_ls t_std)
    Xmark.queries;

  Printf.printf "\nLD, LS and STD returned identical cardinalities.\n"
