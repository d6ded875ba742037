open Lxu_seglog

type axis = Desc | Child

type step = { axis : axis; tag : string; predicates : t list }
and t = step list

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

(* --- evaluation ----------------------------------------------------------

   A predicate-free chain under [`Auto] is a partition scan: the
   planner matches the chain against the synopsis' distinct paths
   ({!Lxu_plan.Plan.partition}), and the answer is the last tag's
   elements whose path slot matched — one pass over that tag's
   columns, no join.  Every other evaluation composes structural
   joins, and works on sets of element refs of one tag — a segment and
   a virtual start packed in one int ({!Lxu_join.Lazy_join.ref_of}),
   kept as sorted int arrays — through these operations:
   - [all tag]                       every element of [tag]
   - [roots_only tag set]            restrict to document-level elements
   - [up axis ~anc ~desc set]        elements of tag [anc] related by
                                     [axis] to a [desc]-element in [set]
   - [down axis ~anc set ~desc]      elements of tag [desc] related by
                                     [axis] to an [anc]-element in [set]
   - [extents tag set]               global (start, stop) pairs, sorted

   Both executors end the same way: they walk the tag's segments in
   tag-list order and each segment's column in local order,
   translating through one [Er_node.cursor] per segment, so the
   extents come out in sorted runs (a child segment's elements sit
   inside its parent's, but are listed after them), which
   [Run_merge.sort] merges instead of sorting. *)

module Lj = Lxu_join.Lazy_join

(* Sets of element refs: sorted int arrays without duplicates. *)
module Refs = struct
  type t = int array

  let empty : t = [||]
  let is_empty (a : t) = Array.length a = 0
  let cardinal (a : t) = Array.length a

  let mem (a : t) x =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length a && Array.unsafe_get a !lo = x

  (* The set of the first [n] entries of [buf], which it sorts. *)
  let of_prefix (buf : int array) n : t =
    let a = if n = Array.length buf then buf else Array.sub buf 0 n in
    Array.stable_sort Int.compare a;
    let k = ref 0 in
    for i = 0 to n - 1 do
      if i = 0 || a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k

  let inter (a : t) (b : t) : t =
    let out = Array.make (min (Array.length a) (Array.length b)) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < Array.length a && !j < Array.length b do
      let x = a.(!i) and y = b.(!j) in
      if x < y then incr i
      else if y < x then incr j
      else begin
        out.(!k) <- x;
        incr k;
        incr i;
        incr j
      end
    done;
    Array.sub out 0 !k

  (* The distinct segments of the set, ascending: refs order by
     segment first. *)
  let sids (a : t) : t =
    of_prefix (Array.map Lj.ref_sid a) (Array.length a)

  (* [pick.(i)] for every [i] with [key.(i)] in [set]. *)
  let select ~(set : t) ~(key : int array) ~(pick : int array) : t =
    let buf = Array.make (Array.length key) 0 and n = ref 0 in
    Array.iteri
      (fun i k ->
        if mem set k then begin
          buf.(!n) <- pick.(i);
          incr n
        end)
      key;
    of_prefix buf !n
end

type ops = {
  all : string -> Refs.t;
  roots_only : string -> Refs.t -> Refs.t;
  up : axis -> anc:string -> desc:string -> Refs.t -> Refs.t;
  down : axis -> anc:string -> Refs.t -> desc:string -> Refs.t;
  extents : string -> Refs.t -> (int * int) list;
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
        Refs.inter acc (ops.up first.axis ~anc:tag ~desc:first.tag heads))
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

let jaxis = function Desc -> Lj.Descendant | Child -> Lj.Child

(* Translates the elements of tag [tid] that [keep ~sid ~start ~pid]
   accepts to sorted global extents: segment by segment in tag-list
   order, each column in local order, one cursor per segment that
   holds a match.  [hint] sizes the output columns. *)
let scan_extents ?guard log ~tid ~hint keep =
  let gs = ref (Array.make (max 16 hint) 0) and ge = ref (Array.make (max 16 hint) 0) in
  let n = ref 0 in
  Array.iter
    (fun (entry : Tag_list.entry) ->
      Lxu_util.Deadline.check_opt guard;
      let sid = entry.Tag_list.sid in
      let node = Update_log.node_of_sid log sid in
      let c = Er_node.cols node ~tid in
      let cur = ref None in
      for i = 0 to Er_node.cols_length c - 1 do
        let start = c.starts.(i) in
        if keep ~sid ~start ~pid:c.pids.(i) then begin
          let k =
            match !cur with
            | Some k -> k
            | None ->
              let k = Er_node.cursor (Er_node.translator node) ~gp:(Update_log.gp log node) in
              cur := Some k;
              k
          in
          if !n = Array.length !gs then begin
            let grow a = Array.append a (Array.make (Array.length a) 0) in
            gs := grow !gs;
            ge := grow !ge
          end;
          !gs.(!n) <- Er_node.cursor_start k start;
          !ge.(!n) <- Er_node.cursor_stop k c.stops.(i);
          incr n
        end
      done)
    (Tag_list.entries (Update_log.tag_list log) ~tid);
  let gs = Array.sub !gs 0 !n and ge = Array.sub !ge 0 !n in
  Lxu_util.Run_merge.sort gs ge;
  List.init !n (fun i -> (gs.(i), ge.(i)))

let log_ops ?guard log =
  let reg = Update_log.registry log in
  let depth = Path_synopsis.depth_table (Update_log.synopsis log) in
  (* The refs of the tag's elements that [keep ~pid] accepts, segment
     by segment over the segments' columns. *)
  let refs_of tag keep =
    match Tag_registry.find reg tag with
    | None -> Refs.empty
    | Some tid ->
      let entries = Tag_list.entries (Update_log.tag_list log) ~tid in
      let total =
        Array.fold_left (fun acc (e : Tag_list.entry) -> acc + e.Tag_list.count) 0 entries
      in
      let buf = Array.make total 0 and n = ref 0 in
      Array.iter
        (fun (entry : Tag_list.entry) ->
          Lxu_util.Deadline.check_opt guard;
          let sid = entry.Tag_list.sid in
          let c : Er_node.cols = Update_log.elements_cols log ~tid ~sid in
          for i = 0 to Er_node.cols_length c - 1 do
            if keep c.pids.(i) then begin
              buf.(!n) <- Lj.ref_of ~sid ~start:c.starts.(i);
              incr n
            end
          done)
        entries;
      Refs.of_prefix buf !n
  in
  let join axis ~anc ~desc = Lj.run_refs ~axis:(jaxis axis) ?guard log ~anc ~desc () in
  {
    all = (fun tag -> refs_of tag (fun _ -> true));
    roots_only = (fun tag set -> Refs.inter set (refs_of tag (fun pid -> depth.(pid) = 0)));
    up =
      (fun axis ~anc ~desc set ->
        let a, d, _ = join axis ~anc ~desc in
        Refs.select ~set ~key:d ~pick:a);
    down =
      (fun axis ~anc set ~desc ->
        let a, d, _ = join axis ~anc ~desc in
        Refs.select ~set ~key:a ~pick:d);
    extents =
      (fun tag set ->
        match Tag_registry.find reg tag with
        | None -> []
        | Some tid ->
          scan_extents ?guard log ~tid ~hint:(Refs.cardinal set) (fun ~sid ~start ~pid:_ ->
              Refs.mem set (Lj.ref_of ~sid ~start)));
  }

let rec has_predicates steps =
  List.exists (fun s -> s.predicates <> [] || List.exists has_predicates s.predicates) steps

(* --- planned evaluation (lib/plan) -------------------------------------- *)

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

(* Executes a partition plan: the scanned tag's elements whose path
   slot matched.  A zero estimate is exact, so it proves the result
   empty without touching a column. *)
let eval_partition ?guard log (p : Lxu_plan.Plan.partition) =
  let results =
    if p.Lxu_plan.Plan.est = 0 then []
    else
      let slots = p.Lxu_plan.Plan.slots in
      scan_extents ?guard log ~tid:p.Lxu_plan.Plan.tid ~hint:p.Lxu_plan.Plan.est
        (fun ~sid:_ ~start:_ ~pid -> slots.(pid))
  in
  p.Lxu_plan.Plan.actual <- List.length results;
  results

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

   Joins hand back their pairs as two ref columns, and the up phase
   caches the kept pairs the same way: no pair record is built or kept.

   [actual_step]/[actual_pairs] of the plan are filled in as execution
   proceeds (the explain output's actuals). *)
let eval_log_planned ?guard ?pool log (steps : t) (o : Lxu_plan.Plan.ordered) =
  let ops = log_ops ?guard log in
  let stepsa = Array.of_list steps in
  let n = Array.length stepsa in
  let reg = Update_log.registry log in
  let k = o.Lxu_plan.Plan.seed in
  (* Summary evidence: may any element of the entry's segment have an
     ancestor tagged like step [anc_i]?  [false] proves no pair can
     come out of the segment, so it is skipped before any element
     access. *)
  let prop3 anc_i =
    match Tag_registry.find reg stepsa.(anc_i).tag with
    | None -> fun _ -> true
    | Some tid -> fun e -> Tag_list.may_have_ancestor e ~tid
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
    let a, d, _ =
      Lj.run_refs ~axis:(jaxis stepsa.(desc_i).axis) ~push_filter ~trim_top ?a_filter ?d_filter
        ?pool ?guard log ~anc:stepsa.(anc_i).tag ~desc:stepsa.(desc_i).tag ()
    in
    (match spec with Some s -> s.Lxu_plan.Plan.actual_pairs <- Array.length a | None -> ());
    (a, d)
  in
  let record i set = o.Lxu_plan.Plan.actual_step.(i) <- Refs.cardinal set in
  try
    (* Spine-match estimates are exact upper bounds (predicates only
       shrink sets), so a zero at the tail is a synopsis proof of
       emptiness: nothing to execute. *)
    if o.Lxu_plan.Plan.est_step.(n - 1) = 0 then raise Empty_result;
    (* Seed set. *)
    let a_sets = Array.make n Refs.empty in
    let init =
      let s = ops.all stepsa.(k).tag in
      let s = if k = 0 && stepsa.(0).axis = Child then ops.roots_only stepsa.(0).tag s else s in
      apply_predicates ops ~tag:stepsa.(k).tag s stepsa.(k).predicates
    in
    a_sets.(k) <- init;
    (* Up phase: frontier sets A_i (elements of step i with a full
       predicate-checked chain down to the seed), with the kept pairs
       cached for replay on the way back down. *)
    let cached = Array.make (max 1 (n - 1)) ([||], [||]) in
    for i = k - 1 downto 0 do
      let above = a_sets.(i + 1) in
      if Refs.is_empty above then raise Empty_result;
      let restr = Refs.sids above in
      let p3 = prop3 i in
      let d_filter (e : Tag_list.entry) = Refs.mem restr e.Tag_list.sid && p3 e in
      let a, d =
        run_join ~dir:`Up ~anc_i:i ~desc_i:(i + 1) ~a_filter:None ~d_filter:(Some d_filter)
      in
      let ka = Array.make (Array.length a) 0 and kd = Array.make (Array.length d) 0 in
      let kept = ref 0 in
      Array.iteri
        (fun j dref ->
          if Refs.mem above dref then begin
            ka.(!kept) <- a.(j);
            kd.(!kept) <- dref;
            incr kept
          end)
        d;
      let ka = Array.sub ka 0 !kept and kd = Array.sub kd 0 !kept in
      cached.(i) <- (ka, kd);
      let aset = Refs.of_prefix (Array.copy ka) !kept in
      let aset =
        if i = 0 && stepsa.(0).axis = Child then ops.roots_only stepsa.(0).tag aset else aset
      in
      a_sets.(i) <- apply_predicates ops ~tag:stepsa.(i).tag aset stepsa.(i).predicates
    done;
    (* Down phase. *)
    let b = ref a_sets.(0) in
    record 0 !b;
    for i = 1 to n - 1 do
      if Refs.is_empty !b then raise Empty_result;
      let prev = !b in
      let next =
        if i <= k then begin
          (* Through the seed: replay the cached pairs — descendants
             are already inside the predicate-checked frontier A_i, so
             no join runs and no predicates re-apply. *)
          let ka, kd = cached.(i - 1) in
          Refs.select ~set:prev ~key:ka ~pick:kd
        end
        else begin
          let restr = Refs.sids prev in
          let a_filter (e : Tag_list.entry) = Refs.mem restr e.Tag_list.sid in
          let p3 = prop3 (i - 1) in
          let d_filter (e : Tag_list.entry) = p3 e in
          let a, d =
            run_join ~dir:`Down ~anc_i:(i - 1) ~desc_i:i ~a_filter:(Some a_filter)
              ~d_filter:(Some d_filter)
          in
          apply_predicates ops ~tag:stepsa.(i).tag
            (Refs.select ~set:prev ~key:a ~pick:d)
            stepsa.(i).predicates
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

let eval_log_plan ?guard ?pool log steps plan =
  match plan with
  | Lxu_plan.Plan.Naive -> eval_steps (log_ops ?guard log) steps
  | Lxu_plan.Plan.Holistic _ ->
    (* Only chosen for predicate-free chains, which the partition scan
       answers without a join. *)
    eval_partition ?guard log (Lxu_plan.Plan.partition ~log (chain_of_steps steps))
  | Lxu_plan.Plan.Ordered o -> eval_log_planned ?guard ?pool log steps o

let live_log db = Option.get (Lazy_db.log db)

let eval ?(plan = `Auto) ?guard db steps =
  if steps = [] then invalid_arg "Path_query.eval: empty path";
  Lxu_util.Deadline.check_opt guard;
  let log = live_log db in
  Update_log.prepare_for_query log;
  match plan with
  | `Naive -> eval_steps (log_ops ?guard log) steps
  | `Auto when not (has_predicates steps) ->
    eval_partition ?guard log (Lxu_plan.Plan.partition ~log (chain_of_steps steps))
  | (`Auto | `Seed _) as m ->
    let force_seed = match m with `Seed s -> Some s | `Auto -> None in
    eval_log_plan ?guard ?pool:(Lazy_db.query_pool db) log steps
      (Lxu_plan.Plan.choose ?force_seed ~log (chain_of_steps steps))

let explain ?guard db steps =
  if steps = [] then invalid_arg "Path_query.explain: empty path";
  let log = live_log db in
  Update_log.prepare_for_query log;
  let chain = chain_of_steps steps in
  (* Execute first: the plan's actual cardinalities are filled in by
     the run, so the rendering carries est vs actual. *)
  if not chain.Lxu_plan.Plan.has_preds then begin
    let p = Lxu_plan.Plan.partition ~log chain in
    let results = eval_partition ?guard log p in
    (Lxu_plan.Plan.explain_partition ~log chain p, results)
  end
  else begin
    let plan = Lxu_plan.Plan.choose ~log chain in
    let results = eval_log_plan ?guard ?pool:(Lazy_db.query_pool db) log steps plan in
    (Lxu_plan.Plan.explain chain plan, results)
  end

let eval_string ?plan ?guard db s = eval ?plan ?guard db (parse_exn s)
let count ?plan ?guard db s = List.length (eval_string ?plan ?guard db s)
