(* The path-partitioning property: on random predicate-free chains,
   the default plan (one hop: the last step's candidates on the
   synopsis' matching path slots, no join), the naive join composition
   and the tree oracle ([Twig_oracle]: a chain is a twig without
   predicates) all agree, and each plan's [count] equals its [eval]'s
   length.  Chains mix Child and Desc steps (a Child first step
   included), repeat tags ([//a//a], [//a/a]), step onto attributes and
   name a tag that never occurs.  The stores see random inserts,
   whole-element removes and packs, on LD and LS, in memory and paged,
   and a snapshot pinned before further writes must keep answering for
   the text it was taken at.  A sibling property checks predicated
   twigs against the same oracle.  The default suite runs each at a
   hundred-odd cases; the slow tier at thousands. *)

open Lazy_xml

let fragments =
  [|
    "<a/>";
    "<a><a/></a>";
    "<a k=\"1\"><b/></a>";
    "<b><a><a k=\"2\"/></a></b>";
    "<c>t<a/></c>";
    "<b/><c k=\"3\">x</c>";
    "<a><b><c/></b></a>";
  |]

let tags = [| "a"; "b"; "c"; "@k"; "zz" |]

(* Fixed chains covering the corners; random ones are added per case. *)
let corner_chains = [ "//a//a"; "//a/a"; "/a"; "/a/a"; "//a/@k"; "/b//c"; "//zz"; "//a//zz" ]

(* Where a fragment may go: before or after any element, or just
   inside an end tag — whichever keeps the text well formed. *)
let insert_points text frag =
  let cands = ref [ 0; String.length text ] in
  List.iter
    (fun (name, (s, e, _)) -> cands := s :: e :: (e - String.length name - 3) :: !cands)
    (Text_model.labels text);
  List.sort_uniq compare !cands
  |> List.filter (fun gp ->
         gp >= 0 && gp <= String.length text
         && Lxu_xml.Parser.is_well_formed_fragment (Text_model.splice text ~gp frag))

(* Last element first: the order the schedules were drawn in. *)
let elements text = List.rev (Text_model.labels text)

(* One random write, applied to every store and to the text. *)
let write st dbs text =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  match Random.State.int st 10 with
  | (0 | 1 | 2) when elements !text <> [] ->
    let _, (s, e, _) = pick (elements !text) in
    List.iter (fun db -> Lazy_db.remove db ~gp:s ~len:(e - s)) dbs;
    text := Text_model.cut !text ~gp:s ~len:(e - s)
  | 3 when elements !text <> [] ->
    (* Pack one top-level element, or the whole document. *)
    let tops = List.filter (fun (_, (_, _, l)) -> l = 0) (elements !text) in
    let gp, len =
      if Random.State.bool st then (0, String.length !text)
      else
        let _, (s, e, _) = pick tops in
        (s, e - s)
    in
    List.iter (fun db -> Lazy_db.pack_subtree db ~gp ~len) dbs
  | _ -> (
    let frag = fragments.(Random.State.int st (Array.length fragments)) in
    match insert_points !text frag with
    | [] -> ()
    | points ->
      let gp = pick points in
      List.iter (fun db -> Lazy_db.insert db ~gp frag) dbs;
      text := Text_model.splice !text ~gp frag)

let random_chain st =
  let n = 1 + Random.State.int st 4 in
  List.init n (fun _ ->
      {
        Path_query.axis = (if Random.State.bool st then Path_query.Desc else Path_query.Child);
        tag = tags.(Random.State.int st (Array.length tags));
        predicates = [];
      })

let plans = [ `Auto; `Naive ]

let plan_name = function `Auto -> "auto" | `Naive -> "naive"

let store_name db =
  Printf.sprintf "%s/%s%s"
    (match Lazy_db.engine db with Lazy_db.LD -> "LD" | Lazy_db.LS -> "LS")
    (match Lazy_db.storage_kind db with `Mem -> "mem" | `Paged -> "paged")
    (if Lazy_db.is_snapshot db then " (pinned snapshot)" else "")

(* Both plans and the tree oracle on one path, and each plan's [count]
   against its own [eval]; a disagreement fails the case, naming the
   path, the plan, the store and the text. *)
let agree db text steps =
  let expected = Twig_oracle.matches ~attributes:true text steps in
  let show l = String.concat " " (List.map (fun (s, e) -> Printf.sprintf "[%d,%d)" s e) l) in
  let path = Path_query.to_string steps in
  List.for_all
    (fun plan ->
      let got = Path_query.eval ~plan db steps in
      let counted = Path_query.count ~plan db path in
      (got = expected
      || QCheck2.Test.fail_reportf "%s under %s on %s: got %s, the oracle says %s on %S" path
           (plan_name plan) (store_name db) (show got) (show expected) text)
      && (counted = List.length got
         || QCheck2.Test.fail_reportf "%s under %s on %s: count %d, eval %d on %S" path
              (plan_name plan) (store_name db) counted (List.length got) text))
    plans

(* One case: a random schedule from [seed] applied to an LD and an LS
   store on each backend, then the corner paths and random ones checked
   on the live stores and on snapshots pinned midway, which must keep
   answering for the text they were taken at while the stores write
   on. *)
let run_case ~corners ~random seed =
  let st = Random.State.make [| seed |] in
  let dbs =
    List.map
      (fun (engine, storage) -> Lazy_db.create ~engine ~storage ~index_attributes:true ())
      [ (Lazy_db.LD, `Mem); (Lazy_db.LS, `Mem); (Lazy_db.LD, `Paged); (Lazy_db.LS, `Paged) ]
  in
  let text = ref "" in
  for _ = 1 to 4 + Random.State.int st 8 do
    write st dbs text
  done;
  let paths = List.map Path_query.parse_exn corners @ List.init 4 (fun _ -> random st) in
  let live_ok = List.for_all (fun db -> List.for_all (agree db !text) paths) dbs in
  let pinned = !text in
  let snaps = List.map Lazy_db.snapshot dbs in
  for _ = 1 to 3 do
    write st dbs text
  done;
  let paths = List.init 4 (fun _ -> random st) @ paths in
  live_ok
  && List.for_all (fun db -> List.for_all (agree db pinned) paths) snaps
  && List.for_all (fun db -> List.for_all (agree db !text) paths) dbs
  && List.for_all
       (fun db ->
         Lazy_db.check db;
         true)
       (dbs @ snaps)

let all_plans_agree ~count =
  QCheck2.Test.make ~name:"partition scan = naive = oracle (random chains)" ~count
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (run_case ~corners:corner_chains ~random:random_chain)

(* --- predicated twigs ------------------------------------------------ *)

(* One-step, nested and stacked predicates, attribute predicates, a
   Child-headed twig, and predicates or spines that cannot match. *)
let corner_twigs =
  [
    "//a[b]"; "//a[@k]/b"; "//b[a/a]//a"; "/a[a]"; "//a[b[c]]"; "//a[b][c]//c"; "//a[zz]//b";
    "//c[a]"; "//a[/a]/@k"; "//b[a[@k]]//a"; "//c//zz[a]";
  ]

(* A random twig of one to three steps with at least one predicate,
   predicates nesting up to two deep. *)
let random_twig st =
  let rec path ~depth ~len =
    List.init len (fun _ ->
        let predicates =
          if depth < 2 && Random.State.int st 3 = 0 then
            [ path ~depth:(depth + 1) ~len:(1 + Random.State.int st 2) ]
          else []
        in
        {
          Path_query.axis = (if Random.State.bool st then Path_query.Desc else Path_query.Child);
          tag = tags.(Random.State.int st (Array.length tags));
          predicates;
        })
  in
  let steps = path ~depth:0 ~len:(1 + Random.State.int st 3) in
  let k = Random.State.int st (List.length steps) in
  List.mapi
    (fun i (s : Path_query.step) ->
      if i = k && s.predicates = [] then { s with predicates = [ path ~depth:1 ~len:1 ] } else s)
    steps

(* The twig property: on random predicated twigs, the default plan
   (left to right with restricted down joins) and the unfiltered naive
   composition agree with the tree oracle on LD/LS x Mem/Paged, live
   and pinned. *)
let predicated_twigs_agree ~count =
  QCheck2.Test.make ~name:"restricted joins = naive = tree oracle (random predicated twigs)"
    ~count ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (run_case ~corners:corner_twigs ~random:random_twig)
