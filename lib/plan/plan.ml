open Lxu_seglog

type axis = Lxu_util.Axis.t = Desc | Child

type chain = { tags : string array; axes : axis array; has_preds : bool }

let tag_of syn s =
  let p = Path_synopsis.path syn s in
  p.(Array.length p - 1)

(* Both passes walk the slot tree: a slot's parent (its path minus the
   last tag) always has a smaller slot, so ascending order visits
   parents first and descending order children first. *)
let down syn ~above axis ~tid =
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

let up syn axis (below : bool array) =
  let n = Path_synopsis.slots syn in
  let parent = Path_synopsis.parent_table syn in
  let out = Array.make n false in
  for t = n - 1 downto 0 do
    let p = parent.(t) in
    if p >= 0 && (below.(t) || (axis = Desc && out.(t))) then out.(p) <- true
  done;
  out

let live syn slots =
  let c = ref 0 in
  Array.iteri (fun s hit -> if hit then c := !c + Path_synopsis.count syn s) slots;
  !c

let choose ?allow_holistic:_ ~log:_ _ = ()
