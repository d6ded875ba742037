(* Differential tests for the default plan: left-to-right semi-joins
   over slot-restricted candidates, where a predicate-free chain is one
   hop that runs no join.  It must be result-identical to the
   unfiltered naive composition — across engines LD/LS, random
   documents, random twigs (with and without
   predicates), synopsis changes from removes and packs, and frozen
   snapshots.  Plus the explain rendering and the synopsis-proven empty
   shortcut. *)

open Lazy_xml
open Lxu_workload

let pair_list = Alcotest.(list (pair int int))
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
  find 0

let step axis tag predicates = { Path_query.axis; tag; predicates }

(* Random linear path with occasional one-step predicates, over a tag
   pool that mostly exists in the document (one sometimes-absent tag
   exercises empty sets). *)
let random_twig st pool =
  let pick () = pool.(Random.State.int st (Array.length pool)) in
  let axis () = if Random.State.bool st then Path_query.Desc else Path_query.Child in
  let len = 2 + Random.State.int st 3 in
  List.init len (fun _ ->
      let predicates =
        if Random.State.int st 100 < 25 then [ [ step (axis ()) (pick ()) [] ] ] else []
      in
      step (axis ()) (pick ()) predicates)

let build_db ~engine ~seed =
  let db = Lazy_db.create ~engine () in
  let edits =
    if seed mod 2 = 0 then
      let text = Xmark.generate_text ~persons:(10 + (seed mod 15)) ~seed () in
      Chopper.chop ~text ~segments:(6 + (seed mod 14))
        (if seed mod 4 = 0 then Chopper.Nested else Chopper.Balanced)
    else
      let params =
        { Generator.default_params with tags = [| "a"; "b"; "c"; "d" |]; text_chance_pct = 10 }
      in
      let text = Generator.generate_text ~params ~seed ~target_elements:(50 + (seed mod 80)) () in
      Chopper.chop ~text ~segments:(5 + (seed mod 10))
        (if seed mod 3 = 0 then Chopper.Nested else Chopper.Balanced)
  in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits;
  db

let pool_for ~seed =
  if seed mod 2 = 0 then [| "person"; "profile"; "interest"; "watches"; "watch"; "zzz" |]
  else [| "a"; "b"; "c"; "d"; "zzz" |]

let mutate st db =
  (* A couple of whole-element removes, sometimes a pack: the default
     plan must stay exact on the post-edit synopsis. *)
  for _ = 1 to 2 do
    (* Last element first: the order the cases were drawn in. *)
    match List.rev (Lxu_props.Text_model.element_extents (Lazy_db.text db)) with
    | [] -> ()
    | l ->
      let arr = Array.of_list l in
      let s, e_ = arr.(Random.State.int st (Array.length arr)) in
      Lazy_db.remove db ~gp:s ~len:(e_ - s)
  done;
  if Random.State.bool st && Lazy_db.doc_length db > 0 then
    Lazy_db.pack_subtree db ~gp:0 ~len:(Lazy_db.doc_length db)

let check_planned_equals_naive ~ctx db twig =
  let naive = Path_query.eval ~plan:`Naive db twig in
  let auto = Path_query.eval ~plan:`Auto db twig in
  Alcotest.check pair_list (ctx ^ " auto = naive") naive auto

let prop_planned_equals_naive =
  QCheck2.Test.make ~name:"planned = naive (random docs, random twigs)" ~count:40
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let engine = if seed mod 4 < 2 then Lazy_db.LD else Lazy_db.LS in
      let db = build_db ~engine ~seed in
      let pool = pool_for ~seed in
      let ctx = Printf.sprintf "seed=%d" seed in
      for _ = 1 to 3 do
        check_planned_equals_naive ~ctx db (random_twig st pool)
      done;
      mutate st db;
      for _ = 1 to 3 do
        check_planned_equals_naive ~ctx:(ctx ^ " post-edit") db (random_twig st pool)
      done;
      (* Frozen snapshot: planned queries over the clone, while the
         live database keeps moving underneath it. *)
      Lazy_db.with_snapshot db (fun snap ->
          Lazy_db.insert db ~gp:(Lazy_db.doc_length db) "<a><d/></a>";
          for _ = 1 to 2 do
            check_planned_equals_naive ~ctx:(ctx ^ " snapshot") snap (random_twig st pool)
          done);
      true)

(* --- deterministic corners -------------------------------------------- *)

let test_explain () =
  (* Many <a><b/></a> groups and a single rare <q><a><b><z/></b></a></q>. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 200 do
    Buffer.add_string buf "<a><b/><b/></a>"
  done;
  Buffer.add_string buf "<q><a><b><z/></b></a></q></r>";
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter
    (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
    (Chopper.chop ~text:(Buffer.contents buf) ~segments:16 Chopper.Balanced);
  (* A predicated twig runs semi-joins on slot-restricted candidates:
     of the 401 bs only the one on a path with a z below is a
     candidate, and the a step costs no join (its tag is on b's path). *)
  let twig = Path_query.parse_exn "//a//b[z]//z" in
  let explained, matches = Path_query.explain db twig in
  Alcotest.check pair_list "explain results = eval" (Path_query.eval db twig) matches;
  check_bool "explain names the executor" true (contains explained "plan: slot-restricted semi-joins");
  check_bool "no join for the head step" false (contains explained "step 0");
  check_bool "one b candidate" true (contains explained "step 1 //b: 1 candidates, 1 survivors");
  check_bool "predicate candidates and survivors" true
    (contains explained "predicate b[//z]: 1 z candidates, 1 survivors");
  check_bool "tail step" true (contains explained "step 2 //z: 1 candidates, 1 survivors");
  (* Naive runs every step, every b a candidate. *)
  Alcotest.check pair_list "naive agrees" matches (Path_query.eval ~plan:`Naive db twig);
  (* The predicate-free chain is one hop: its last step's candidates
     (the one z on a matching path) are its survivors, and no join or
     predicate line appears. *)
  let twig = Path_query.parse_exn "//a//b//z" in
  let explained, matches = Path_query.explain db twig in
  Alcotest.check pair_list "chain results = naive" (Path_query.eval ~plan:`Naive db twig) matches;
  check_bool "chain shows its one step" true
    (contains explained "step 2 //z: 1 candidates, 1 survivors");
  check_bool "chain shows no other step" false
    (contains explained "step 0" || contains explained "step 1");
  check_bool "chain shows no predicate" false (contains explained "predicate")

let test_provably_empty () =
  (* z never appears under c: the synopsis proves the result empty and
     the executor returns without running a join. *)
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter
    (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
    (Chopper.chop ~text:"<r><c><d/><d/></c><a><z/></a><c><d/></c></r>" ~segments:3
       Chopper.Balanced);
  List.iter
    (fun path ->
      let twig = Path_query.parse_exn path in
      let before = Lxu_join.Lazy_join.runs () in
      Alcotest.check pair_list (path ^ " provably empty") [] (Path_query.eval ~plan:`Auto db twig);
      Alcotest.(check int) (path ^ " ran no join") before (Lxu_join.Lazy_join.runs ());
      Alcotest.check pair_list (path ^ " naive agrees") [] (Path_query.eval ~plan:`Naive db twig))
    [ "//c//z"; "//c[d]//z" ]

let suite =
  [
    Alcotest.test_case "explain renders the run" `Quick test_explain;
    Alcotest.test_case "synopsis-proven empty result" `Quick test_provably_empty;
    QCheck_alcotest.to_alcotest prop_planned_equals_naive;
  ]
