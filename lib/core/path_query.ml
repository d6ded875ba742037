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

   A predicate-free chain under [`Auto] is a partition scan: the chain
   is matched against the synopsis' distinct paths
   ({!Lxu_plan.Plan.partition}), and the answer is the last tag's
   elements whose path slot matched — one pass over that tag's
   columns, no join.  Every other evaluation composes structural joins
   left to right ([eval_steps]; under [`Auto] with segment-restricted
   down joins), and works on sets of element refs of one tag — a segment and
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

(* What an explained run records, in execution order: the survivors of
   spine step [i], and the pairs of every join. *)
type event =
  | Step of { i : int; survivors : int }
  | Join of { dir : [ `Up | `Down ]; anc : string; axis : axis; desc : string; pairs : int }

type ops = {
  all : string -> Refs.t;
  roots_only : string -> Refs.t -> Refs.t;
  up : axis -> anc:string -> desc:string -> Refs.t -> Refs.t;
  down : axis -> anc:string -> Refs.t -> desc:string -> Refs.t;
  extents : string -> Refs.t -> (int * int) list;
  note : event -> unit;
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
   predicate path; an empty set needs no join. *)
and apply_predicates ops ~tag set preds =
  List.fold_left
    (fun acc pred ->
      match pred with
      | [] -> acc
      | _ when Refs.is_empty acc -> acc
      | first :: _ ->
        let heads = pred_head_set ops pred in
        Refs.inter acc (ops.up first.axis ~anc:tag ~desc:first.tag heads))
    set preds

(* Left to right: the first step's elements, then one down join per
   step from the previous step's survivors; nothing more runs once a
   step has none. *)
let eval_steps ops steps =
  match steps with
  | [] -> invalid_arg "Path_query.eval: empty path"
  | first :: rest ->
    let initial =
      let s = ops.all first.tag in
      let s = if first.axis = Child then ops.roots_only first.tag s else s in
      apply_predicates ops ~tag:first.tag s first.predicates
    in
    ops.note (Step { i = 0; survivors = Refs.cardinal initial });
    let rec go i tag survivors = function
      | _ when Refs.is_empty survivors -> []
      | [] -> ops.extents tag survivors
      | step :: rest ->
        let next = ops.down step.axis ~anc:tag survivors ~desc:step.tag in
        let next = apply_predicates ops ~tag:step.tag next step.predicates in
        ops.note (Step { i; survivors = Refs.cardinal next });
        go (i + 1) step.tag next rest
    in
    go 1 first.tag initial rest

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

(* [restrict] is the default plan's selective Proposition 3 on down
   joins: the ancestor side keeps only the segments of the previous
   step's survivors, and the descendant side only the segments whose
   tag-list entry may have an ancestor of the ancestor tag (summary
   evidence, no element access).  A dropped segment holds no pair the
   step keeps, so results do not change.  Predicate up joins stay
   unrestricted: their descendant set is often a whole tag, and the
   filter then costs more than it skips. *)
let log_ops ?guard ?pool ?(note = ignore) ~restrict log =
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
  let join ?a_filter ?d_filter dir axis ~anc ~desc =
    Lxu_util.Deadline.check_opt guard;
    let a, d, _ =
      Lj.run_refs ~axis:(jaxis axis) ?a_filter ?d_filter ?pool ?guard log ~anc ~desc ()
    in
    note (Join { dir; anc; axis; desc; pairs = Array.length a });
    (a, d)
  in
  {
    all = (fun tag -> refs_of tag (fun _ -> true));
    roots_only = (fun tag set -> Refs.inter set (refs_of tag (fun pid -> depth.(pid) = 0)));
    up =
      (fun axis ~anc ~desc set ->
        let a, d = join `Up axis ~anc ~desc in
        Refs.select ~set ~key:d ~pick:a);
    down =
      (fun axis ~anc set ~desc ->
        let a, d =
          if not restrict then join `Down axis ~anc ~desc
          else begin
            let sids = Refs.sids set and tid = Tag_registry.find reg anc in
            join `Down axis ~anc ~desc
              ~a_filter:(fun e -> Refs.mem sids e.Tag_list.sid)
              ~d_filter:(fun e ->
                match tid with Some tid -> Tag_list.may_have_ancestor e ~tid | None -> false)
          end
        in
        Refs.select ~set ~key:a ~pick:d);
    extents =
      (fun tag set ->
        match Tag_registry.find reg tag with
        | None -> []
        | Some tid ->
          scan_extents ?guard log ~tid ~hint:(Refs.cardinal set) (fun ~sid ~start ~pid:_ ->
              Refs.mem set (Lj.ref_of ~sid ~start)));
    note;
  }

let rec has_predicates steps =
  List.exists (fun s -> s.predicates <> [] || List.exists has_predicates s.predicates) steps

module Plan = Lxu_plan.Plan

let chain_of_steps (steps : t) =
  let arr = Array.of_list steps in
  {
    Plan.tags = Array.map (fun s -> s.tag) arr;
    axes = Array.map (fun s -> match s.axis with Desc -> Plan.Desc | Child -> Plan.Child) arr;
    has_preds = has_predicates steps;
  }

(* Executes a partition plan: the scanned tag's elements whose path
   slot matched.  A zero estimate is exact, so it proves the result
   empty without touching a column. *)
let eval_partition ?guard log (p : Plan.partition) =
  let results =
    if p.Plan.est = 0 then []
    else
      let slots = p.Plan.slots in
      scan_extents ?guard log ~tid:p.Plan.tid ~hint:p.Plan.est (fun ~sid:_ ~start:_ ~pid ->
          slots.(pid))
  in
  p.Plan.actual <- List.length results;
  results

(* The default plan, given the chain's partition [p]: a
   predicate-free chain is a partition scan; a chain with predicates
   runs left to right with restricted down joins, unless its spine's
   partition estimate (an upper bound) is 0, which proves it empty
   without a join. *)
let eval_auto ?guard ?note db log steps (chain : Plan.chain) p =
  if not chain.Plan.has_preds then eval_partition ?guard log p
  else if p.Plan.est = 0 then []
  else eval_steps (log_ops ?guard ?pool:(Lazy_db.query_pool db) ?note ~restrict:true log) steps

let live_log db = Option.get (Lazy_db.log db)

let eval ?(plan = `Auto) ?guard db steps =
  if steps = [] then invalid_arg "Path_query.eval: empty path";
  Lxu_util.Deadline.check_opt guard;
  let log = live_log db in
  Update_log.prepare_for_query log;
  match plan with
  | `Naive -> eval_steps (log_ops ?guard ~restrict:false log) steps
  | `Auto ->
    let chain = chain_of_steps steps in
    eval_auto ?guard db log steps chain (Plan.partition ~log chain)

(* The join rendering: every join's pairs and every spine step's
   partition estimate against its survivors, in execution order. *)
let explain_joins ~log steps events =
  let b = Buffer.create 256 in
  let axis_str = function Desc -> "//" | Child -> "/" in
  Buffer.add_string b
    "plan: left-to-right joins (spine est is an upper bound: predicates are not counted)\n";
  List.iter
    (function
      | Join { dir; anc; axis; desc; pairs } ->
        Buffer.add_string b
          (Printf.sprintf "  %s join %s%s%s: %d pairs\n"
             (match dir with `Up -> "predicate" | `Down -> "down")
             anc (axis_str axis) desc pairs)
      | Step { i; survivors } ->
        let s = List.nth steps i in
        let prefix = chain_of_steps (List.filteri (fun j _ -> j <= i) steps) in
        Buffer.add_string b
          (Printf.sprintf "  step %d %s%s: est %d, actual %d\n" i (axis_str s.axis) s.tag
             (Plan.partition ~log prefix).Plan.est survivors))
    events;
  Buffer.contents b

let explain ?guard db steps =
  if steps = [] then invalid_arg "Path_query.explain: empty path";
  let log = live_log db in
  Update_log.prepare_for_query log;
  let chain = chain_of_steps steps in
  let p = Plan.partition ~log chain in
  let events = ref [] in
  let results = eval_auto ?guard ~note:(fun e -> events := e :: !events) db log steps chain p in
  let rendering =
    if not chain.Plan.has_preds then Plan.explain_partition ~log chain p
    else if p.Plan.est = 0 then "plan: the spine's partition est is 0, empty without a join\n"
    else explain_joins ~log steps (List.rev !events)
  in
  (rendering, results)

let eval_string ?plan ?guard db s = eval ?plan ?guard db (parse_exn s)
let count ?plan ?guard db s = List.length (eval_string ?plan ?guard db s)
