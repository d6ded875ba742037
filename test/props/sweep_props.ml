(* The frame-sweep property: Lazy-Join's cross-segment step sweeps each
   stack frame once over the hooks of the descendant segments below it,
   so it is only right if hooks reach a frame in document order and the
   frame's open elements are exactly those containing the hook.  This
   builds the shapes that stress that: one parent segment of nested
   [a] elements (at least three deep) and many child segments inserted
   at increasing, equal and interleaved positions — children inside
   children too — then partial removes that tombstone text around the
   hooks, and a child whose parent's text before it is all tombstoned
   (parent and child then share a global position).  On LD/LS,
   [count] and [query] under Desc and Child and [semi] on both sides
   must equal [Naive_join] over a fresh parse of the text — on the
   live store and on a snapshot pinned before the last removes. *)

open Lazy_xml
open Lxu_join

(* Child fragments: D carriers, A carriers holding D, text only, and a
   bare [a] (an A segment with no D below it). *)
let fragments =
  [| "<d/>"; "<d>t</d>"; "<a>t<d/>t</a>"; "tt"; "<a/>"; "t<d/>t"; "<b><d/></b>"; "<a><a>t</a>t</a>" |]

(* A nested [a] chain at least [min_depth] deep, with siblings — some
   adjacent, one's stop the next one's start — and text runs around
   most tags. *)
let parent st ~min_depth =
  let b = Buffer.create 256 in
  let text () = Buffer.add_string b [| ""; "t"; "tt" |].(Random.State.int st 3) in
  let rec gen depth =
    Buffer.add_string b "<a>tt";
    let kids = if depth < min_depth then 1 + Random.State.int st 2 else Random.State.int st 3 in
    for k = 0 to kids - 1 do
      if depth < 5 && ((k = 0 && depth < min_depth) || Random.State.int st 3 > 0) then
        gen (depth + 1)
      else Buffer.add_string b [| "<d/>"; "<b>t</b>"; "t" |].(Random.State.int st 3);
      text ()
    done;
    Buffer.add_string b "t</a>"
  in
  Buffer.add_string b "<r>t";
  for _ = 1 to 1 + Random.State.int st 2 do
    gen 1;
    Buffer.add_string b "t"
  done;
  Buffer.add_string b "</r>";
  Buffer.contents b

(* Positions strictly inside the root element and outside every tag. *)
let insert_points text =
  let n = String.length text in
  let in_tag = ref false and acc = ref [] in
  for p = 0 to n do
    if p > 0 then begin
      if text.[p - 1] = '<' then in_tag := true;
      if text.[p - 1] = '>' then in_tag := false
    end;
    if (not !in_tag) && p >= 3 && p <= n - 4 then acc := p :: !acc
  done;
  Array.of_list (List.rev !acc)

(* Maximal runs of character data, as (start, stop). *)
let text_runs text =
  let n = String.length text in
  let acc = ref [] and i = ref 0 in
  while !i < n do
    if text.[!i] = '<' then i := String.index_from text !i '>' + 1
    else begin
      let j = ref !i in
      while !j < n && text.[!j] <> '<' do
        incr j
      done;
      acc := (!i, !j) :: !acc;
      i := !j
    end
  done;
  Array.of_list !acc

let build seed =
  let st = Random.State.make [| seed |] in
  let engine = if seed land 1 = 0 then Lazy_db.LD else Lazy_db.LS in
  let db = Lazy_db.create ~engine () in
  Lazy_db.insert db ~gp:0 (parent st ~min_depth:(3 + Random.State.int st 2));
  let last = ref (0, 0) in
  for _ = 1 to 10 + Random.State.int st 30 do
    let pts = insert_points (Lazy_db.text db) in
    let frag = fragments.(Random.State.int st (Array.length fragments)) in
    let g, len = !last in
    (* Interleaved, then increasing, equal (before or after the last
       child: siblings at one lp) and nested positions. *)
    let gp =
      match Random.State.int st 6 with
      | 0 | 1 -> pts.(Random.State.int st (Array.length pts))
      | 2 -> (
        match Array.find_opt (fun p -> p > g + len) pts with Some p -> p | None -> pts.(0))
      | 3 -> g
      | 4 -> g + len
      | _ -> (
        match Array.find_opt (fun p -> p > g && p < g + len) pts with Some p -> p | None -> g)
    in
    let gp = if Array.mem gp pts then gp else pts.(Random.State.int st (Array.length pts)) in
    Lazy_db.insert db ~gp frag;
    last := (gp, String.length frag)
  done;
  (* A child whose parent's own text before it is all tombstoned. *)
  let pts = insert_points (Lazy_db.text db) in
  let g = pts.(Random.State.int st (Array.length pts)) in
  Lazy_db.insert db ~gp:g "tt<d/>";
  Lazy_db.insert db ~gp:(g + 2)
    [| "<a>t<d/></a>"; "<d/>"; "<a><d/></a>t" |].(Random.State.int st 3);
  Lazy_db.remove db ~gp:g ~len:2;
  let snap = Lazy_db.snapshot db in
  (* Partial removes of character data around the hooks. *)
  for _ = 1 to Random.State.int st 6 do
    let runs = text_runs (Lazy_db.text db) in
    let s, e = runs.(Random.State.int st (Array.length runs)) in
    let a = s + Random.State.int st (e - s) in
    let b = a + 1 + Random.State.int st (e - a) in
    Lazy_db.remove db ~gp:a ~len:(b - a)
  done;
  (db, snap)

(* The global starts of the elements a semi-join mask keeps, sorted. *)
let mask_starts log (m : Lazy_join.mask) =
  let cursor sid =
    Lxu_seglog.(Seg_map.cursor (Update_log.seg_map log) (Update_log.node_of_sid log sid))
  in
  let acc = ref [] in
  Array.iteri
    (fun k b ->
      Bytes.iteri
        (fun i c ->
          if c <> '\000' then
            acc :=
              Lxu_seglog.Er_node.cursor_start
                (cursor m.Lazy_join.entries.(k).Lxu_seglog.Tag_list.sid)
                m.Lazy_join.cols.(k).Lxu_seglog.Er_node.starts.(i)
              :: !acc)
        b)
    m.Lazy_join.sel;
  List.sort compare !acc

(* The plain axis check as a semi-join's [ok] table: any depth above
   for Desc, the depth right above for Child. *)
let axis_ok log axis =
  let syn = Lxu_seglog.Update_log.synopsis log in
  let depth = Lxu_seglog.Path_synopsis.depth_table syn in
  Array.init (Lxu_seglog.Path_synopsis.slots syn) (fun s ->
      Bytes.init depth.(s) (fun da ->
          if axis = Lxu_util.Axis.Desc || da = depth.(s) - 1 then '\001' else '\000'))

(* Every join of the property on one store: [db] is live or pinned. *)
let agree db =
  let log = Option.get (Lazy_db.log db) in
  Lxu_seglog.Update_log.prepare_for_query log;
  let text = Lazy_db.text db in
  let of_tag = Text_model.of_tag (Text_model.labels text) in
  let reg = Lxu_seglog.Update_log.registry log in
  let nslots = Lxu_seglog.Path_synopsis.slots (Lxu_seglog.Update_log.synopsis log) in
  let tid tag = Option.value (Lxu_seglog.Tag_registry.find reg tag) ~default:(-1) in
  let every = Array.make nslots true in
  List.for_all
    (fun ((anc, desc), axis) ->
      let ctx =
        Printf.sprintf "%s%s%s (%s, %s)" anc
          (if axis = Lxu_util.Axis.Child then "/" else "//")
          desc
          (match Lazy_db.engine db with Lazy_db.LD -> "LD" | Lazy_db.LS -> "LS")
          (if Lazy_db.is_snapshot db then "pinned" else "live")
      in
      let expected = Naive_join.join ~axis ~anc:(of_tag anc) ~desc:(of_tag desc) () in
      let (ga, gd), _ = Lazy_join.query ~axis log ~anc ~desc () in
      let queried = List.combine (Array.to_list ga) (Array.to_list gd) in
      let ok = axis_ok log axis in
      let semi keep =
        mask_starts log
          (Lazy_join.semi log
             ~anc:(Lazy_join.select log ~tid:(tid anc) every)
             ~desc:(Lazy_join.select log ~tid:(tid desc) every)
             ~ok ~keep)
      in
      let distinct f = List.sort_uniq compare (List.map f expected) in
      (queried = expected
      || QCheck2.Test.fail_reportf "%s: query differs from the naive join" ctx)
      && (Lazy_join.count ~axis log ~anc ~desc () = List.length expected
         || QCheck2.Test.fail_reportf "%s: count differs" ctx)
      && (semi `Anc = distinct fst || QCheck2.Test.fail_reportf "%s: semi `Anc differs" ctx)
      && (semi `Desc = distinct snd || QCheck2.Test.fail_reportf "%s: semi `Desc differs" ctx))
    (List.concat_map
       (fun tags -> [ (tags, Lxu_util.Axis.Desc); (tags, Lxu_util.Axis.Child) ])
       [ ("a", "d"); ("a", "a") ])

let hooks_agree ~count =
  QCheck2.Test.make ~name:"frame sweep = naive join (count, query, semi)" ~count
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let db, snap = build seed in
      agree db && agree snap)
