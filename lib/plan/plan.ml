open Lxu_seglog

type axis = Desc | Child

type chain = { tags : string array; axes : axis array; has_preds : bool }

type partition = {
  tid : int;
  slots : bool array;
  est : int;
  mutable actual : int;
}

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

let partition ~log chain =
  let syn = Update_log.synopsis log and reg = Update_log.registry log in
  let tid tag = Option.value (Tag_registry.find reg tag) ~default:(-1) in
  let set = ref (Array.make (Path_synopsis.slots syn) false) and n = Array.length chain.tags in
  Array.iteri
    (fun j tag ->
      set := down syn ~above:(if j = 0 then None else Some !set) chain.axes.(j) ~tid:(tid tag))
    chain.tags;
  let slots = Array.mapi (fun s hit -> hit && Path_synopsis.count syn s > 0) !set in
  { tid = (if n = 0 then -1 else tid chain.tags.(n - 1)); slots; est = live syn slots; actual = -1 }

let explain_partition ~log chain p =
  let reg = Update_log.registry log in
  let syn = Update_log.synopsis log in
  let card v = if v < 0 then "-" else string_of_int v in
  let paths = Buffer.create 256 and matching = ref 0 in
  Array.iteri
    (fun s hit ->
      if hit then begin
        incr matching;
        let names = Array.map (Tag_registry.name reg) (Path_synopsis.path syn s) in
        Buffer.add_string paths
          (Printf.sprintf "  path /%s (%d)\n"
             (String.concat "/" (Array.to_list names))
             (Path_synopsis.count syn s))
      end)
    p.slots;
  Printf.sprintf "plan: partition scan of %s columns, no join; %d of %d paths match; est %d, actual %s\n%s"
    chain.tags.(Array.length chain.tags - 1)
    !matching (Path_synopsis.distinct_paths syn) p.est (card p.actual) (Buffer.contents paths)

let choose ?allow_holistic:_ ~log chain = partition ~log chain
