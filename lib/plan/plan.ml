open Lxu_seglog

type axis = Desc | Child

type chain = { tags : string array; axes : axis array; has_preds : bool }

type partition = {
  tid : int;
  slots : bool array;
  est : int;
  mutable actual : int;
}

(* [m.(j).(q)]: positions 0..q of path [p] spell a match of spine
   steps 0..j ending at q, [tmatch j v] telling whether step [j]'s tag
   is tag id [v].  A leading Child step must sit at position 0 (a
   document-level element); a later Child step right below its
   predecessor's position, a Desc step anywhere below it. *)
let spine_matrix chain tmatch p =
  let n = Array.length chain.tags in
  let len = Array.length p in
  let last = len - 1 in
  let m = Array.make_matrix n len false in
  for q = 0 to last do
    m.(0).(q) <- tmatch 0 p.(q) && (chain.axes.(0) = Desc || q = 0)
  done;
  for j = 1 to n - 1 do
    match chain.axes.(j) with
    | Child ->
      for q = 1 to last do
        m.(j).(q) <- tmatch j p.(q) && m.(j - 1).(q - 1)
      done
    | Desc ->
      let any = ref false in
      for q = 0 to last do
        m.(j).(q) <- tmatch j p.(q) && !any;
        if m.(j - 1).(q) then any := true
      done
  done;
  m

let chain_tids ~log chain =
  let reg = Update_log.registry log in
  Array.map (fun tag -> Tag_registry.find reg tag) chain.tags

let partition ~log chain =
  let n = Array.length chain.tags in
  let syn = Update_log.synopsis log in
  let slots = Array.make (Path_synopsis.slots syn) false in
  let tids = chain_tids ~log chain in
  if n = 0 || Array.exists Option.is_none tids then
    { tid = -1; slots; est = 0; actual = -1 }
  else begin
    let tids = Array.map Option.get tids in
    let tid = tids.(n - 1) in
    let tmatch j v = tids.(j) = v in
    let est = ref 0 in
    for s = 0 to Path_synopsis.slots syn - 1 do
      let c = Path_synopsis.count syn s in
      let p = Path_synopsis.path syn s in
      let last = Array.length p - 1 in
      (* Only a path ending in the last step's tag can match; the rest
         need the full spine match. *)
      if c > 0 && p.(last) = tid && (spine_matrix chain tmatch p).(n - 1).(last) then begin
        slots.(s) <- true;
        est := !est + c
      end
    done;
    { tid; slots; est = !est; actual = -1 }
  end

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
