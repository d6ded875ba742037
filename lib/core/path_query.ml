open Lxu_seglog

type axis = Lxu_util.Axis.t = Desc | Child

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

   Every path runs as a chain of semi-joins over selection masks
   ({!Lxu_join.Lazy_join.semi}), where a join's [ok] table checks the
   steps it spans on the descendant's own path.  A predicate-free chain
   is one hop: its last step's candidates are the answer and no join
   runs.  The extents come from one walk over the final mask's
   segments in tag-list order with one [Er_node.cursor] each, in sorted
   runs (a child segment's elements sit inside its parent's but are
   listed after them) that [Run_merge.sort] merges instead of
   sorting. *)

module Lj = Lxu_join.Lazy_join

(* --- slot sets: a [bool array] over every synopsis slot; an element
   can sit in a match only if its slot does ------------------------- *)

let tag_of syn s =
  let p = Path_synopsis.path syn s in
  p.(Array.length p - 1)

(* Both passes walk the slot tree: a slot's parent (its path minus the
   last tag) always has a smaller slot, so ascending order visits
   parents first and descending order children first.  [down_slots]:
   tag [tid]'s slots in [axis] relation to one of [above] ([None]: the
   root); [up_slots]: the slots with one of [below] under them. *)
let down_slots syn ~above axis ~tid =
  let n = Path_synopsis.slots syn in
  let parent = Path_synopsis.parent_table syn in
  match above with
  | None ->
    let depth = Path_synopsis.depth_table syn in
    Array.init n (fun s -> tag_of syn s = tid && (axis = Desc || depth.(s) = 0))
  | Some (a : bool array) -> (
    match axis with
    | Child -> Array.init n (fun s -> parent.(s) >= 0 && a.(parent.(s)) && tag_of syn s = tid)
    | Desc ->
      (* [under.(s)]: [s] or one of its ancestors is in [a]. *)
      let under = Array.make n false and out = Array.make n false in
      for s = 0 to n - 1 do
        let p = parent.(s) in
        let below_a = p >= 0 && under.(p) in
        out.(s) <- below_a && tag_of syn s = tid;
        under.(s) <- below_a || a.(s)
      done;
      out)

let up_slots syn axis (below : bool array) =
  let n = Path_synopsis.slots syn in
  let parent = Path_synopsis.parent_table syn in
  let out = Array.make n false in
  for t = n - 1 downto 0 do
    let p = parent.(t) in
    if p >= 0 && (below.(t) || (axis = Desc && out.(t))) then out.(p) <- true
  done;
  out

(* Live elements on the set's slots. *)
let live_in syn slots =
  let c = ref 0 in
  Array.iteri (fun s hit -> if hit then c := !c + Path_synopsis.count syn s) slots;
  !c

(* A step with its tag id ([-1]: the tag never occurs) and its
   candidate slots, its predicate paths annotated likewise. *)
type node = { step : step; tid : int; cand : bool array; preds : node list list }

(* Annotates [steps], whose first step relates to the slots [above]
   ([None]: the document root).  Under [`Auto] a candidate slot
   matches the path from the root down to the step ([down_slots]) and
   holds a candidate of every predicate head and of the next step below
   it ([up_slots]) — so in
   [//a//b\[c\]//c] only the [b]s on a path that has a [c] below are
   candidates.  Under [`Naive] every slot of the tag is, except for a
   leading [/tag], which must be document-level. *)
let rec annotate ~auto syn reg ~above ~root (steps : t) =
  match steps with
  | [] -> []
  | s :: rest ->
    let tid = Option.value (Tag_registry.find reg s.tag) ~default:(-1) in
    let down =
      if auto then down_slots syn ~above s.axis ~tid
      else down_slots syn ~above:None (if root then s.axis else Desc) ~tid
    in
    let below = annotate ~auto syn reg ~above:(Some down) ~root:false in
    let preds = List.map below s.predicates and rest = below rest in
    let cand =
      if not auto then down
      else
        List.fold_left
          (fun acc -> function
            | [] -> acc
            | k :: _ -> Array.map2 ( && ) acc (up_slots syn k.step.axis k.cand))
          down (rest :: preds)
    in
    { step = s; tid; cand; preds } :: rest

(* The top-down pass after [annotate]'s bottom-up one: a candidate
   must also lie in [axis] relation below a candidate of the step
   above, which in [//a\[b\]//b\[z\]] leaves the predicate's [b]s only
   under the [a]s that can hold a [z]. *)
let rec narrow syn ~above nodes =
  match nodes with
  | [] -> []
  | n :: rest ->
    let cand =
      match above with
      | None -> n.cand
      | Some _ -> Array.map2 ( && ) n.cand (down_slots syn ~above n.step.axis ~tid:n.tid)
    in
    let below = narrow syn ~above:(Some cand) in
    { n with cand; preds = List.map below n.preds } :: below rest

(* The next join's reach from an anchor: the nodes up to the first
   with predicates, or the last, under [`Auto]; one node under
   [`Naive].  Returns them and the nodes after. *)
let rec split ~auto = function
  | [] -> invalid_arg "Path_query: empty path"
  | n :: rest when (not auto) || n.preds <> [] || rest = [] -> ([ n ], rest)
  | n :: rest ->
    let hop, after = split ~auto rest in
    (n :: hop, after)

let rec last = function [ n ] -> n | _ :: l -> last l | [] -> invalid_arg "Path_query.last"

(* [ok_row hop p]: byte [da] is set when the positions of path [p]
   below depth [da] spell the hop's steps, its last step at [p]'s end. *)
let ok_row (hop : node array) (p : int array) =
  let dt = Array.length p - 1 and m = Array.length hop in
  (* [b.(q)]: hop steps j.. spell p.(q..dt), step j at q. *)
  let b = ref (Array.init (dt + 1) (fun q -> q = dt && p.(q) = hop.(m - 1).tid)) in
  for j = m - 2 downto 0 do
    let next = !b and cur = Array.make (dt + 1) false and later = ref false in
    for q = dt downto 0 do
      cur.(q) <-
        p.(q) = hop.(j).tid
        && (match hop.(j + 1).step.axis with Child -> q < dt && next.(q + 1) | Desc -> !later);
      if next.(q) then later := true
    done;
    b := cur
  done;
  let row = Bytes.make dt '\000' and later = ref false in
  for da = dt - 1 downto 0 do
    if !b.(da + 1) then later := true;
    if (match hop.(0).step.axis with Child -> !b.(da + 1) | Desc -> !later) then
      Bytes.set row da '\001'
  done;
  row

(* The join's [ok] table for a hop: a row per live candidate slot of
   its last node. *)
let ok_table syn hop =
  let target = last hop and hop = Array.of_list hop in
  Array.init (Path_synopsis.slots syn) (fun t ->
      if target.cand.(t) && Path_synopsis.count syn t > 0 then ok_row hop (Path_synopsis.path syn t)
      else Bytes.empty)

(* What an explained run records, in execution order: per spine step
   that ends a hop and per predicate, the candidates and the
   survivors. *)
type event =
  | Step of { i : int; node : node; candidates : Lj.mask; survivors : Lj.mask }
  | Pred of { on : node; pred : node list; target : node; candidates : Lj.mask; survivors : Lj.mask }

type ctx = {
  log : Update_log.t;
  syn : Path_synopsis.t;
  auto : bool;
  guard : Lxu_util.Deadline.guard option;
  note : (event -> unit) option;
}

let candidates ctx n =
  Lj.select ?guard:ctx.guard ctx.log
    ~tid:(if live_in ctx.syn n.cand = 0 then -1 else n.tid)
    n.cand

let is_empty m = Array.for_all (fun b -> Bytes.length b = 0) m.Lj.sel
let note ctx e = Option.iter (fun f -> f e) ctx.note

let join ctx ~anc ~desc hop keep =
  Lxu_util.Deadline.check_opt ctx.guard;
  Lj.semi ~restrict:ctx.auto ?guard:ctx.guard ctx.log ~anc ~desc
    ~ok:(ok_table ctx.syn hop) ~keep

(* The members of [mask] (elements of node [n]) that satisfy every
   predicate of [n]. *)
let rec satisfy ctx n mask =
  List.fold_left (fun m pred -> if is_empty m then m else holds ctx n m pred) mask n.preds

(* The members of [mask] with a match of predicate path [pred] below:
   the join's far end is satisfied first (inner predicates first), and
   the path's remainder after it is one more predicate of it. *)
and holds ctx n mask pred =
  let hop, rest = split ~auto:ctx.auto pred in
  let target = last hop in
  let c = candidates ctx target in
  let t = satisfy ctx target c in
  let t = if rest = [] || is_empty t then t else holds ctx target t rest in
  let out =
    if is_empty t then { mask with Lj.sel = Array.map (fun _ -> Bytes.empty) mask.Lj.sel }
    else join ctx ~anc:mask ~desc:t hop `Anc
  in
  note ctx (Pred { on = n; pred; target; candidates = c; survivors = out });
  out

(* Left to right: the first join target's candidates (under [`Auto]
   the steps before it carry no predicate, so its slots alone decide
   them), its predicates, then per hop a step down and the target's
   predicates; nothing runs once a step has no survivors.  Returns the
   last step's survivors. *)
let eval_twig ctx nodes =
  let step i node candidates survivors = note ctx (Step { i; node; candidates; survivors }) in
  let hop, rest = split ~auto:ctx.auto nodes in
  let first = last hop in
  let c = candidates ctx first in
  let m = satisfy ctx first c in
  step (List.length hop - 1) first c m;
  let rec go i m = function
    | [] -> m
    | _ when is_empty m -> m
    | nodes ->
      let hop, rest = split ~auto:ctx.auto nodes in
      let target = last hop and i = i + List.length hop in
      let c = candidates ctx target in
      let m = satisfy ctx target (join ctx ~anc:m ~desc:c hop `Desc) in
      step i target c m;
      go i m rest
  in
  go (List.length hop - 1) m rest

(* The members of [m] as sorted global extents: per segment holding a
   member, in tag-list order, one cursor over the mask's own node and
   columns. *)
let extents ?guard log (m : Lj.mask) =
  let n = Lj.mask_count m in
  let gs = Array.make n 0 and ge = Array.make n 0 and j = ref 0 in
  Array.iteri
    (fun k b ->
      Lxu_util.Deadline.check_opt guard;
      if Bytes.length b > 0 then begin
        let node = m.Lj.nodes.(k) and c = m.Lj.cols.(k) in
        let cursor = Er_node.cursor (Er_node.translator node) ~gp:(Update_log.gp log node) in
        for i = 0 to Bytes.length b - 1 do
          if Bytes.unsafe_get b i <> '\000' then begin
            gs.(!j) <- Er_node.cursor_start cursor c.starts.(i);
            ge.(!j) <- Er_node.cursor_stop cursor c.stops.(i);
            incr j
          end
        done
      end)
    m.Lj.sel;
  Lxu_util.Run_merge.sort gs ge;
  List.init n (fun i -> (gs.(i), ge.(i)))

let live_log db = Option.get (Lazy_db.log db)

(* Runs [steps] through the semi-join executor: under [`Auto] with
   annotated candidates and restricted joins; a first step with no live candidate proves the result empty
   without a join (every candidate set below it is then empty too).
   Returns the last step's survivors. *)
let eval_joins ?guard ?note ~auto db steps =
  if steps = [] then invalid_arg "Path_query.eval: empty path";
  Lxu_util.Deadline.check_opt guard;
  let log = live_log db in
  Update_log.prepare_for_query log;
  let syn = Update_log.synopsis log in
  let nodes = annotate ~auto syn (Update_log.registry log) ~above:None ~root:true steps in
  let nodes = if auto then narrow syn ~above:None nodes else nodes in
  (log, eval_twig { log; syn; auto; guard; note } nodes)

let eval ?(plan = `Auto) ?guard db steps =
  let log, m = eval_joins ?guard ~auto:(plan = `Auto) db steps in
  extents ?guard log m

let axis_str = function Desc -> "//" | Child -> "/"

(* The rendering: per spine step that ends a hop and per predicate,
   its candidates against its survivors, in execution order.  A
   predicate-free chain is one hop, so it shows one step and no
   predicate. *)
let render events =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "plan: slot-restricted semi-joins (candidates: elements on a slot that can match)\n";
  List.iter
    (function
      | Step { i; node; candidates; survivors } ->
        Buffer.add_string b
          (Printf.sprintf "  step %d %s%s: %d candidates, %d survivors\n" i
             (axis_str node.step.axis) node.step.tag (Lj.mask_count candidates)
             (Lj.mask_count survivors))
      | Pred { on; pred; target; candidates; survivors } ->
        Buffer.add_string b
          (Printf.sprintf "  predicate %s[%s]: %d %s candidates, %d survivors\n" on.step.tag
             (to_string (List.map (fun n -> n.step) pred))
             (Lj.mask_count candidates) target.step.tag (Lj.mask_count survivors)))
    events;
  Buffer.contents b

let explain ?guard db steps =
  let events = ref [] in
  let log, m = eval_joins ?guard ~note:(fun e -> events := e :: !events) ~auto:true db steps in
  (render (List.rev !events), extents ?guard log m)

let count ?(plan = `Auto) ?guard db steps =
  Lj.mask_count (snd (eval_joins ?guard ~auto:(plan = `Auto) db steps))
