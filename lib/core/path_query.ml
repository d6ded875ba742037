open Lxu_seglog
open Lxu_labeling

type axis = Desc | Child

type step = { axis : axis; tag : string; predicates : t list }
and t = step list

type strategy = Pairwise | Holistic

(* --- parsing --------------------------------------------------------- *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

exception Bad of string

let parse input =
  let n = String.length input in
  (* Parses a path starting at [i]; inside a predicate parsing stops at
     ']'.  Returns (steps, next position). *)
  let rec path i ~in_pred acc =
    if i >= n || (in_pred && input.[i] = ']') then (List.rev acc, i)
    else begin
      let axis, i =
        if i + 1 < n && input.[i] = '/' && input.[i + 1] = '/' then (Desc, i + 2)
        else if input.[i] = '/' then (Child, i + 1)
        else (Desc, i) (* a bare tag means // *)
      in
      if i < n && input.[i] = '/' then raise (Bad "empty step");
      (* An optional '@' selects attribute subelements. *)
      let j = ref (if i < n && input.[i] = '@' then i + 1 else i) in
      let name_start = !j in
      while !j < n && is_name_char input.[!j] do
        incr j
      done;
      if !j = name_start then
        raise (Bad (Printf.sprintf "expected a tag name at offset %d" i));
      let tag = String.sub input i (!j - i) in
      let rec preds k acc_p =
        if k < n && input.[k] = '[' then begin
          let inner, k' = path (k + 1) ~in_pred:true [] in
          if inner = [] then raise (Bad "empty predicate");
          if k' >= n || input.[k'] <> ']' then raise (Bad "unclosed predicate");
          preds (k' + 1) (inner :: acc_p)
        end
        else (List.rev acc_p, k)
      in
      let predicates, k = preds !j [] in
      path k ~in_pred ({ axis; tag; predicates } :: acc)
    end
  in
  if String.trim input = "" then Error "empty path expression"
  else begin
    match path 0 ~in_pred:false [] with
    | [], _ -> Error "empty path expression"
    | steps, k when k = n -> Ok steps
    | _, k -> Error (Printf.sprintf "unexpected character at offset %d" k)
    | exception Bad msg -> Error msg
  end

let parse_exn s =
  match parse s with
  | Ok t -> t
  | Error msg -> invalid_arg (Printf.sprintf "Path_query.parse: %s" msg)

let rec to_string t = String.concat "" (List.map step_to_string t)

and step_to_string { axis; tag; predicates } =
  (match axis with Desc -> "//" | Child -> "/")
  ^ tag
  ^ String.concat "" (List.map (fun p -> "[" ^ to_string p ^ "]") predicates)

(* --- generic evaluation ------------------------------------------------

   One evaluator shared by the lazy-log and interval-store engines,
   parameterized by set operations over "elements of one tag":
   - [all tag]                       every element of [tag]
   - [roots_only tag set]            restrict to document-level elements
   - [up axis ~anc ~desc set]        elements of tag [anc] related by
                                     [axis] to a [desc]-element in [set]
   - [down axis ~anc set ~desc]      elements of tag [desc] related by
                                     [axis] to an [anc]-element in [set]
   - [extents tag set]               global (start, stop) pairs, sorted *)

type 'set ops = {
  all : string -> 'set;
  roots_only : string -> 'set -> 'set;
  up : axis -> anc:string -> desc:string -> 'set -> 'set;
  down : axis -> anc:string -> 'set -> desc:string -> 'set;
  inter : 'set -> 'set -> 'set;
  extents : string -> 'set -> (int * int) list;
}

(* Elements able to head predicate path [steps], with the suffix and
   all nested predicates satisfied below them. *)
let rec pred_head_set ops (steps : t) =
  match steps with
  | [] -> invalid_arg "Path_query: empty predicate"
  | [ s ] -> apply_predicates ops ~tag:s.tag (ops.all s.tag) s.predicates
  | s :: (next :: _ as rest) ->
    let below = pred_head_set ops rest in
    apply_predicates ops ~tag:s.tag
      (ops.up next.axis ~anc:s.tag ~desc:next.tag below)
      s.predicates

(* Restrict [set] (elements of [tag]) to those satisfying every
   predicate path. *)
and apply_predicates ops ~tag set preds =
  List.fold_left
    (fun acc pred ->
      match pred with
      | [] -> acc
      | first :: _ ->
        let heads = pred_head_set ops pred in
        ops.inter acc (ops.up first.axis ~anc:tag ~desc:first.tag heads))
    set preds

let eval_steps ops steps =
  match steps with
  | [] -> invalid_arg "Path_query.eval: empty path"
  | first :: rest ->
    let initial =
      let s = ops.all first.tag in
      let s = if first.axis = Child then ops.roots_only first.tag s else s in
      apply_predicates ops ~tag:first.tag s first.predicates
    in
    let final_tag, final_set =
      List.fold_left
        (fun (prev_tag, survivors) step ->
          let next = ops.down step.axis ~anc:prev_tag survivors ~desc:step.tag in
          (step.tag, apply_predicates ops ~tag:step.tag next step.predicates))
        (first.tag, initial) rest
    in
    ops.extents final_tag final_set

(* --- lazy-log instantiation -------------------------------------------- *)

(* Lexicographic order on int pairs without polymorphic [compare]:
   element refs [(sid, start)] and global extents [(start, stop)]. *)
let compare_int_pair (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

module Ref_set = Set.Make (struct
  type t = int * int

  let compare = compare_int_pair
end)

let log_ops ?guard log =
  let reg = Update_log.registry log in
  (* Folds [f acc ~sid ~start ~stop ~level] over every element of the
     tag, segment by segment through the columnar cache — no key
     records are materialized. *)
  let fold_tag tag f init =
    match Tag_registry.find reg tag with
    | None -> init
    | Some tid ->
      Array.fold_left
        (fun acc (entry : Tag_list.entry) ->
          Lxu_util.Deadline.check_opt guard;
          let sid = entry.Tag_list.sid in
          let c : Seg_cache.cols = Update_log.elements_cols log ~tid ~sid in
          let n = Seg_cache.cols_length c in
          let acc = ref acc in
          for i = 0 to n - 1 do
            acc := f !acc ~sid ~start:c.starts.(i) ~stop:c.stops.(i) ~level:c.levels.(i)
          done;
          !acc)
        init
        (Update_log.segments_for_tag log ~tag)
  in
  let jaxis = function
    | Desc -> Lxu_join.Lazy_join.Descendant
    | Child -> Lxu_join.Lazy_join.Child
  in
  let join axis ~anc ~desc =
    fst (Lxu_join.Lazy_join.run ~axis:(jaxis axis) ?guard log ~anc ~desc ())
  in
  let anc_key (p : Lxu_join.Lazy_join.pair) =
    (p.Lxu_join.Lazy_join.a_sid, p.Lxu_join.Lazy_join.a_start)
  and desc_key (p : Lxu_join.Lazy_join.pair) =
    (p.Lxu_join.Lazy_join.d_sid, p.Lxu_join.Lazy_join.d_start)
  in
  {
    all =
      (fun tag ->
        fold_tag tag
          (fun acc ~sid ~start ~stop:_ ~level:_ -> Ref_set.add (sid, start) acc)
          Ref_set.empty);
    roots_only =
      (fun tag set ->
        fold_tag tag
          (fun acc ~sid ~start ~stop:_ ~level ->
            if level = 0 && Ref_set.mem (sid, start) set then Ref_set.add (sid, start) acc
            else acc)
          Ref_set.empty);
    up =
      (fun axis ~anc ~desc set ->
        Array.fold_left
          (fun acc p ->
            if Ref_set.mem (desc_key p) set then Ref_set.add (anc_key p) acc else acc)
          Ref_set.empty (join axis ~anc ~desc));
    down =
      (fun axis ~anc set ~desc ->
        Array.fold_left
          (fun acc p ->
            if Ref_set.mem (anc_key p) set then Ref_set.add (desc_key p) acc else acc)
          Ref_set.empty (join axis ~anc ~desc));
    inter = Ref_set.inter;
    extents =
      (fun tag set ->
        let tr = Update_log.translators log in
        fold_tag tag
          (fun acc ~sid ~start ~stop ~level:_ ->
            if Ref_set.mem (sid, start) set then begin
              let t = tr sid in
              (Er_node.global_start t start, Er_node.global_stop t stop) :: acc
            end
            else acc)
          []
        |> List.sort compare_int_pair);
  }

(* --- interval-store instantiation --------------------------------------- *)

module Int_set = Set.Make (Int)

let store_ops ?guard store =
  let elements tag = Interval_store.elements store ~tag in
  let jaxis = function
    | Desc -> Lxu_join.Stack_tree_desc.Descendant
    | Child -> Lxu_join.Stack_tree_desc.Child
  in
  let join axis ~anc ~desc =
    (* Stack-Tree-Desc itself is not guard-aware; checking per join
       call still bounds a multi-step path between steps. *)
    Lxu_util.Deadline.check_opt guard;
    fst (Lxu_join.Stack_tree_desc.join ~axis:(jaxis axis) ~anc:(elements anc) ~desc:(elements desc) ())
  in
  {
    all =
      (fun tag ->
        Array.fold_left
          (fun acc (l : Interval.t) -> Int_set.add l.Interval.start acc)
          Int_set.empty (elements tag));
    roots_only =
      (fun tag set ->
        Array.fold_left
          (fun acc (l : Interval.t) ->
            if l.Interval.level = 0 && Int_set.mem l.Interval.start set then
              Int_set.add l.Interval.start acc
            else acc)
          Int_set.empty (elements tag));
    up =
      (fun axis ~anc ~desc set ->
        List.fold_left
          (fun acc ((a : Interval.t), (d : Interval.t)) ->
            if Int_set.mem d.Interval.start set then Int_set.add a.Interval.start acc
            else acc)
          Int_set.empty (join axis ~anc ~desc));
    down =
      (fun axis ~anc set ~desc ->
        List.fold_left
          (fun acc ((a : Interval.t), (d : Interval.t)) ->
            if Int_set.mem a.Interval.start set then Int_set.add d.Interval.start acc
            else acc)
          Int_set.empty (join axis ~anc ~desc));
    inter = Int_set.inter;
    extents =
      (fun tag set ->
        Array.to_list (elements tag)
        |> List.filter_map (fun (l : Interval.t) ->
               if Int_set.mem l.Interval.start set then
                 Some (l.Interval.start, l.Interval.stop)
               else None)
        |> List.sort compare);
  }

(* --- holistic evaluation (PathStack; predicate-free paths only) --------- *)

let rec has_predicates steps =
  List.exists (fun s -> s.predicates <> [] || List.exists has_predicates s.predicates) steps

(* Builds a TwigStack query from a predicate path: the spine is a
   chain whose last node is the output; predicates hang off their
   step as extra branches. *)
let twig_of_steps log steps =
  let next_id = ref 0 in
  let stream_of tag = Lxu_join.Std_baseline.global_list log ~tag in
  let edge_of = function Desc -> Lxu_join.Twig_stack.Desc | Child -> Lxu_join.Twig_stack.Child in
  let rec pred_chain (ps : t) =
    match ps with
    | [] -> []
    | s :: rest ->
      let qid = !next_id in
      incr next_id;
      let pred_kids = List.concat_map pred_chain (List.map (fun p -> p) s.predicates) in
      let deeper = pred_chain rest in
      [ { Lxu_join.Twig_stack.qid; stream = stream_of s.tag; edge = edge_of s.axis;
          children = pred_kids @ deeper } ]
  in
  let rec spine (ss : t) =
    match ss with
    | [] -> invalid_arg "Path_query: empty path"
    | [ s ] ->
      let qid = !next_id in
      incr next_id;
      let kids = List.concat_map pred_chain s.predicates in
      ({ Lxu_join.Twig_stack.qid; stream = stream_of s.tag; edge = edge_of s.axis;
         children = kids }, qid)
    | s :: rest ->
      let qid = !next_id in
      incr next_id;
      let kids = List.concat_map pred_chain s.predicates in
      let deeper, out = spine rest in
      ({ Lxu_join.Twig_stack.qid; stream = stream_of s.tag; edge = edge_of s.axis;
         children = kids @ [ deeper ] }, out)
  in
  spine steps

let eval_log_twig log steps =
  let root, out_qid =
    match steps with
    | first :: _ when first.axis = Child ->
      (* Restrict the first stream to document roots. *)
      let root, out = twig_of_steps log steps in
      let stream =
        Array.of_list
          (List.filter (fun (l : Interval.t) -> l.Interval.level = 0)
             (Array.to_list root.Lxu_join.Twig_stack.stream))
      in
      ({ root with Lxu_join.Twig_stack.stream }, out)
    | _ -> twig_of_steps log steps
  in
  Lxu_join.Twig_stack.matches root
  |> List.map (fun row ->
         let iv = row.(out_qid) in
         (iv.Interval.start, iv.Interval.stop))
  |> List.sort_uniq compare

let eval_log_holistic log steps =
  let steps_a = Array.of_list steps in
  let streams =
    Array.map (fun { tag; _ } -> Lxu_join.Std_baseline.global_list log ~tag) steps_a
  in
  (match steps_a.(0).axis with
  | Child ->
    streams.(0) <-
      Array.of_list
        (List.filter
           (fun (l : Interval.t) -> l.Interval.level = 0)
           (Array.to_list streams.(0)))
  | Desc -> ());
  let edges =
    Array.init
      (Array.length steps_a - 1)
      (fun i ->
        match steps_a.(i + 1).axis with
        | Desc -> Lxu_join.Path_stack.Desc
        | Child -> Lxu_join.Path_stack.Child)
  in
  Lxu_join.Path_stack.leaves ~streams ~edges
  |> List.map (fun (l : Interval.t) -> (l.Interval.start, l.Interval.stop))
  |> List.sort compare

(* --- planned evaluation (lib/plan) -------------------------------------- *)

module Sid_set = Set.Make (Int)

let chain_of_steps (steps : t) =
  let arr = Array.of_list steps in
  {
    Lxu_plan.Plan.tags = Array.map (fun s -> s.tag) arr;
    axes =
      Array.map
        (fun s ->
          match s.axis with Desc -> Lxu_plan.Plan.Desc | Child -> Lxu_plan.Plan.Child)
        arr;
    has_preds = has_predicates steps;
  }

exception Empty_result

(* Executes an [Ordered] plan: anchor at the seed step, climb towards
   the head restricting each join's descendant side to the current
   frontier's segments (plus synopsis ancestor-tag evidence — selective
   Proposition 3), then descend towards the tail replaying the cached
   up-phase pairs through the seed and running ancestor-restricted
   joins past it.  The final per-step survivor sets equal naive
   left-to-right evaluation's: the up phase's extra
   "reaches-the-seed-downward" constraint vanishes by the time the seed
   is crossed, and only the final step's extents are returned — so
   results are fingerprint-identical to the naive order.

   [actual_step]/[actual_pairs] of the plan are filled in as execution
   proceeds (the explain output's actuals). *)
let eval_log_planned ?guard ?pool log (steps : t) (o : Lxu_plan.Plan.ordered) =
  let ops = log_ops ?guard log in
  let stepsa = Array.of_list steps in
  let n = Array.length stepsa in
  let syn = Update_log.synopsis log in
  let reg = Update_log.registry log in
  let k = o.Lxu_plan.Plan.seed in
  let anc_key (p : Lxu_join.Lazy_join.pair) =
    (p.Lxu_join.Lazy_join.a_sid, p.Lxu_join.Lazy_join.a_start)
  and desc_key (p : Lxu_join.Lazy_join.pair) =
    (p.Lxu_join.Lazy_join.d_sid, p.Lxu_join.Lazy_join.d_start)
  in
  let segs_of set = Ref_set.fold (fun (sid, _) acc -> Sid_set.add sid acc) set Sid_set.empty in
  (* Summary evidence: may any element of the segment have an ancestor
     tagged like step [anc_i]?  [false] proves no pair can come out of
     the segment, so it is skipped before any element access. *)
  let prop3 anc_i =
    match Tag_registry.find reg stepsa.(anc_i).tag with
    | None -> fun _ -> true
    | Some tid -> fun sid -> Path_synopsis.may_have_ancestor syn ~sid ~tid
  in
  let spec_for dir anc_i =
    Array.fold_left
      (fun acc (js : Lxu_plan.Plan.join_spec) ->
        if js.Lxu_plan.Plan.dir = dir && js.Lxu_plan.Plan.anc = anc_i then Some js else acc)
      None o.Lxu_plan.Plan.joins
  in
  let run_join ~dir ~anc_i ~desc_i ~a_filter ~d_filter =
    Lxu_util.Deadline.check_opt guard;
    let spec = spec_for dir anc_i in
    let push_filter, trim_top =
      match spec with
      | Some s -> (s.Lxu_plan.Plan.push_filter, s.Lxu_plan.Plan.trim_top)
      | None -> (true, true)
    in
    let jaxis =
      match stepsa.(desc_i).axis with
      | Desc -> Lxu_join.Lazy_join.Descendant
      | Child -> Lxu_join.Lazy_join.Child
    in
    let pairs =
      fst
        (Lxu_join.Lazy_join.run ~axis:jaxis ~push_filter ~trim_top ?a_filter ?d_filter
           ?pool ?guard log ~anc:stepsa.(anc_i).tag ~desc:stepsa.(desc_i).tag ())
    in
    (match spec with Some s -> s.Lxu_plan.Plan.actual_pairs <- Array.length pairs | None -> ());
    pairs
  in
  let record i set = o.Lxu_plan.Plan.actual_step.(i) <- Ref_set.cardinal set in
  try
    (* Spine-match estimates are exact upper bounds (predicates only
       shrink sets), so a zero at the tail is a synopsis proof of
       emptiness: nothing to execute. *)
    if o.Lxu_plan.Plan.est_step.(n - 1) = 0 then raise Empty_result;
    (* Seed set. *)
    let a_sets = Array.make n Ref_set.empty in
    let init =
      let s = ops.all stepsa.(k).tag in
      let s = if k = 0 && stepsa.(0).axis = Child then ops.roots_only stepsa.(0).tag s else s in
      apply_predicates ops ~tag:stepsa.(k).tag s stepsa.(k).predicates
    in
    a_sets.(k) <- init;
    (* Up phase: frontier sets A_i (elements of step i with a full
       predicate-checked chain down to the seed), with the join pairs
       cached for replay on the way back down. *)
    let cached = Array.make (max 1 (n - 1)) [||] in
    for i = k - 1 downto 0 do
      let above = a_sets.(i + 1) in
      if Ref_set.is_empty above then raise Empty_result;
      let restr = segs_of above in
      let p3 = prop3 i in
      let d_filter (e : Tag_list.entry) =
        Sid_set.mem e.Tag_list.sid restr && p3 e.Tag_list.sid
      in
      let pairs =
        run_join ~dir:`Up ~anc_i:i ~desc_i:(i + 1) ~a_filter:None ~d_filter:(Some d_filter)
      in
      let kept =
        Array.of_list
          (List.filter (fun p -> Ref_set.mem (desc_key p) above) (Array.to_list pairs))
      in
      cached.(i) <- kept;
      let aset =
        Array.fold_left (fun acc p -> Ref_set.add (anc_key p) acc) Ref_set.empty kept
      in
      let aset =
        if i = 0 && stepsa.(0).axis = Child then ops.roots_only stepsa.(0).tag aset else aset
      in
      a_sets.(i) <- apply_predicates ops ~tag:stepsa.(i).tag aset stepsa.(i).predicates
    done;
    (* Down phase. *)
    let b = ref a_sets.(0) in
    record 0 !b;
    for i = 1 to n - 1 do
      if Ref_set.is_empty !b then raise Empty_result;
      let prev = !b in
      let next =
        if i <= k then
          (* Through the seed: replay the cached pairs — descendants
             are already inside the predicate-checked frontier A_i, so
             no join runs and no predicates re-apply. *)
          Array.fold_left
            (fun acc p ->
              if Ref_set.mem (anc_key p) prev then Ref_set.add (desc_key p) acc else acc)
            Ref_set.empty cached.(i - 1)
        else begin
          let restr = segs_of prev in
          let a_filter (e : Tag_list.entry) = Sid_set.mem e.Tag_list.sid restr in
          let p3 = prop3 (i - 1) in
          let d_filter (e : Tag_list.entry) = p3 e.Tag_list.sid in
          let pairs =
            run_join ~dir:`Down ~anc_i:(i - 1) ~desc_i:i ~a_filter:(Some a_filter)
              ~d_filter:(Some d_filter)
          in
          let s =
            Array.fold_left
              (fun acc p ->
                if Ref_set.mem (anc_key p) prev then Ref_set.add (desc_key p) acc else acc)
              Ref_set.empty pairs
          in
          apply_predicates ops ~tag:stepsa.(i).tag s stepsa.(i).predicates
        end
      in
      b := next;
      record i !b
    done;
    ops.extents stepsa.(n - 1).tag !b
  with Empty_result ->
    Array.iteri (fun i v -> if v < 0 then o.Lxu_plan.Plan.actual_step.(i) <- 0)
      o.Lxu_plan.Plan.actual_step;
    []

(* Resolves the requested planning mode against the [LXU_PLAN] escape
   hatch: [LXU_PLAN=naive] preserves strict left-to-right evaluation
   regardless of the caller. *)
let resolve_plan_mode plan =
  match Sys.getenv_opt "LXU_PLAN" with Some "naive" -> `Naive | _ -> plan

(* Cost-based plan for a spine over a log engine, and its execution.
   Holistic auto-selection stays conservative (wide margin in the cost
   model) and is disabled on frozen snapshots. *)
let choose_plan ~force_seed log steps =
  Lxu_plan.Plan.choose ?force_seed
    ~allow_holistic:(not (Update_log.is_frozen log))
    ~log (chain_of_steps steps)

let eval_log_plan ?guard ?pool log steps plan =
  match plan with
  | Lxu_plan.Plan.Naive -> eval_steps (log_ops ?guard log) steps
  | Lxu_plan.Plan.Holistic _ ->
    (* Plans are only chosen for predicate-free chains here; sort_uniq
       normalizes the leaf list to the extents fingerprint. *)
    List.sort_uniq compare (eval_log_holistic log steps)
  | Lxu_plan.Plan.Ordered o -> eval_log_planned ?guard ?pool log steps o

let eval ?(strategy = Pairwise) ?(plan = `Auto) ?guard db steps =
  if steps = [] then invalid_arg "Path_query.eval: empty path";
  Lxu_util.Deadline.check_opt guard;
  match (Lazy_db.log db, strategy) with
  | Some log, Holistic when not (has_predicates steps) ->
    (* The holistic passes run on materialized global lists; the guard
       bounds their stream construction, not the single merge pass. *)
    Update_log.prepare_for_query log;
    Lxu_util.Deadline.check_opt guard;
    eval_log_holistic log steps
  | Some log, Holistic ->
    (* Predicate paths are branching twigs: TwigStack. *)
    Update_log.prepare_for_query log;
    Lxu_util.Deadline.check_opt guard;
    eval_log_twig log steps
  | Some log, Pairwise -> begin
    Update_log.prepare_for_query log;
    match resolve_plan_mode plan with
    | `Naive -> eval_steps (log_ops ?guard log) steps
    | (`Auto | `Seed _) as m ->
      let force_seed = match m with `Seed s -> Some s | `Auto -> None in
      eval_log_plan ?guard ?pool:(Lazy_db.query_pool db) log steps
        (choose_plan ~force_seed log steps)
  end
  | None, _ -> eval_steps (store_ops ?guard (Option.get (Lazy_db.store db))) steps

let explain ?guard db steps =
  if steps = [] then invalid_arg "Path_query.explain: empty path";
  match Lazy_db.log db with
  | None ->
    ("plan: STD fallback (interval store, naive left-to-right)", eval ?guard db steps)
  | Some log -> begin
    Update_log.prepare_for_query log;
    match resolve_plan_mode `Auto with
    | `Naive ->
      ("plan: naive (LXU_PLAN=naive)", eval_steps (log_ops ?guard log) steps)
    | _ ->
      let plan = choose_plan ~force_seed:None log steps in
      (* Execute first: the ordered plan's actual cardinalities are
         filled in by the run, so the rendering carries est vs actual. *)
      let results = eval_log_plan ?guard ?pool:(Lazy_db.query_pool db) log steps plan in
      (Lxu_plan.Plan.explain (chain_of_steps steps) plan, results)
  end

let eval_string ?strategy ?plan ?guard db s = eval ?strategy ?plan ?guard db (parse_exn s)
let count ?strategy ?plan ?guard db s = List.length (eval_string ?strategy ?plan ?guard db s)
