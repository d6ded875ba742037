(* Randomized differential test for the segment-parallel Lazy-Join:
   for ~50 generated workloads (mixed inserts and removes), a database
   queried with a domain pool must return byte-identical results and
   stats to a sequentially queried twin — across engines LD/LS, both
   axes, and after [rebuild] and [pack_subtree].  The suite runs twice
   from test/main.ml: once with 1 domain (the sequential-fallback
   wiring) and once with 4 (true multi-domain execution). *)

open Lazy_xml
open Lxu_workload

let pair_list = Alcotest.(list (pair int int))
let check_int = Alcotest.(check int)

(* One workload: an insert schedule plus the tag pair to query.  Even
   seeds use the join-mix generator (controlled cross-segment
   percentages), odd seeds chop a random document. *)
let build_edits seed =
  if seed mod 2 = 0 then begin
    let spec =
      {
        Joinmix.segments = 6 + (seed mod 20);
        pairs_per_segment = 1 + (seed mod 4);
        cross_percent = seed * 13 mod 101;
        shape = (if seed mod 4 = 0 then Joinmix.Nested else Joinmix.Balanced);
      }
    in
    let sch = Joinmix.generate spec in
    (sch.Joinmix.edits, sch.Joinmix.anc_tag, sch.Joinmix.desc_tag)
  end
  else begin
    let params =
      { Generator.default_params with tags = [| "a"; "b"; "d" |]; text_chance_pct = 15 }
    in
    let text = Generator.generate_text ~params ~seed ~target_elements:(60 + (7 * (seed mod 9))) () in
    let shape = if seed mod 3 = 0 then Chopper.Nested else Chopper.Balanced in
    let edits = Chopper.chop ~text ~segments:(8 + (seed mod 12)) shape in
    (edits, "a", "d")
  end

(* Removes a randomly chosen whole element from every database in
   [dbs] (they hold identical documents, so one extent fits all). *)
let apply_random_removes st dbs n =
  for _ = 1 to n do
    let text = Lazy_db.text (List.hd dbs) in
    if String.length text > 0 then begin
      let nodes = Lxu_xml.Parser.parse_fragment text in
      let extents = ref [] in
      Lxu_xml.Tree.iter_elements nodes (fun e ~level:_ ->
          if e.Lxu_xml.Tree.e_start >= 0 then
            extents := (e.Lxu_xml.Tree.e_start, e.Lxu_xml.Tree.e_end) :: !extents);
      match !extents with
      | [] -> ()
      | l ->
        let arr = Array.of_list l in
        let s, e_ = arr.(Random.State.int st (Array.length arr)) in
        List.iter (fun db -> Lazy_db.remove db ~gp:s ~len:(e_ - s)) dbs
    end
  done

let compare_queries ~ctx seq par ~anc ~desc =
  List.iter
    (fun (axis, axis_name) ->
      let ctx = Printf.sprintf "%s %s" ctx axis_name in
      let sp, ss = Lazy_db.query seq ~axis ~anc ~desc () in
      let pp, ps = Lazy_db.query par ~axis ~anc ~desc () in
      Alcotest.check pair_list (ctx ^ " pairs") sp pp;
      check_int (ctx ^ " pair_count") ss.Lazy_db.pair_count ps.Lazy_db.pair_count;
      check_int (ctx ^ " cross_pairs") ss.Lazy_db.cross_pairs ps.Lazy_db.cross_pairs;
      check_int (ctx ^ " in_pairs") ss.Lazy_db.in_pairs ps.Lazy_db.in_pairs;
      check_int (ctx ^ " segments_skipped") ss.Lazy_db.segments_skipped
        ps.Lazy_db.segments_skipped;
      check_int (ctx ^ " elements_scanned") ss.Lazy_db.elements_scanned
        ps.Lazy_db.elements_scanned;
      (* [count] reads the join's buffers instead of building pairs;
         it must agree with the materialized result on both sides. *)
      check_int (ctx ^ " count = pair_count (seq)") ss.Lazy_db.pair_count
        (Lazy_db.count seq ~axis ~anc ~desc ());
      check_int (ctx ^ " count = pair_count (pooled)") ps.Lazy_db.pair_count
        (Lazy_db.count par ~axis ~anc ~desc ()))
    [ (Lxu_util.Axis.Desc, "desc"); (Lxu_util.Axis.Child, "child") ]

(* The raw join must agree pair-for-pair too (local labels, emission
   order), not just after the global translation and sort. *)
let compare_raw ~ctx db pool ~anc ~desc =
  match Lazy_db.log db with
  | None -> ()
  | Some log ->
    let sp, ss = Lxu_join.Lazy_join.run log ~anc ~desc () in
    let pp, ps = Lxu_join.Lazy_join.run ~pool log ~anc ~desc () in
    Alcotest.(check bool) (ctx ^ " raw pairs byte-identical") true (sp = pp);
    Alcotest.(check bool) (ctx ^ " raw stats identical") true (ss = ps)

let differential ~domains () =
  let pool = Lxu_util.Domain_pool.shared ~size:domains in
  for seed = 1 to 50 do
    let edits, anc, desc = build_edits seed in
    let st = Random.State.make [| 0xbeef; seed; domains |] in
    List.iter
      (fun (engine, ename) ->
        let ctx = Printf.sprintf "seed %d %s d%d" seed ename domains in
        let seq = Lazy_db.create ~engine ~domains:1 () in
        let par = Lazy_db.create ~engine ~domains () in
        List.iter (fun (gp, frag) -> Lazy_db.insert seq ~gp frag; Lazy_db.insert par ~gp frag) edits;
        apply_random_removes st [ seq; par ] (1 + (seed mod 3));
        compare_queries ~ctx seq par ~anc ~desc;
        compare_raw ~ctx:(ctx ^ " raw") seq pool ~anc ~desc;
        (* Packing a subtree re-segments the document; results must
           still agree. *)
        let len = Lazy_db.doc_length seq in
        if len > 0 then begin
          Lazy_db.pack_subtree seq ~gp:0 ~len;
          Lazy_db.pack_subtree par ~gp:0 ~len;
          compare_queries ~ctx:(ctx ^ " packed") seq par ~anc ~desc
        end;
        (* Rebuild collapses to a single segment: the parallel path
           must degrade to the same single in-segment join. *)
        Lazy_db.rebuild seq;
        Lazy_db.rebuild par;
        compare_queries ~ctx:(ctx ^ " rebuilt") seq par ~anc ~desc)
      [ (Lazy_db.LD, "LD"); (Lazy_db.LS, "LS") ]
  done

let test_missing_tags () =
  let db = Lazy_db.create ~domains:4 () in
  Lazy_db.insert db ~gp:0 "<a><b/></a>";
  check_int "absent desc" 0 (Lazy_db.count db ~anc:"a" ~desc:"zz" ());
  check_int "absent anc" 0 (Lazy_db.count db ~anc:"zz" ~desc:"b" ())

let test_pool_basics () =
  let pool = Lxu_util.Domain_pool.create ~size:4 () in
  let sq = Lxu_util.Domain_pool.map pool 1000 (fun i -> i * i) in
  Alcotest.(check int) "map length" 1000 (Array.length sq);
  Array.iteri (fun i v -> check_int "map slot" (i * i) v) sq;
  (* Exceptions propagate to await. *)
  Alcotest.check_raises "task exception surfaces" Exit (fun () ->
      ignore (Lxu_util.Domain_pool.map pool 64 (fun i -> if i = 13 then raise Exit else i)));
  (* The pool survives a failed task set. *)
  let again = Lxu_util.Domain_pool.map pool 10 (fun i -> i + 1) in
  check_int "pool reusable after failure" 10 again.(9);
  Lxu_util.Domain_pool.shutdown pool;
  Lxu_util.Domain_pool.shutdown pool (* idempotent *)

let suite =
  [
    Alcotest.test_case "domain pool map/await/shutdown" `Quick test_pool_basics;
    Alcotest.test_case "differential LXU_DOMAINS=1" `Slow (fun () -> differential ~domains:1 ());
    Alcotest.test_case "differential LXU_DOMAINS=4" `Slow (fun () -> differential ~domains:4 ());
    Alcotest.test_case "parallel query on missing tags" `Quick test_missing_tags;
  ]
