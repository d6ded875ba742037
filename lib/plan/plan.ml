open Lxu_seglog

type axis = Desc | Child

type chain = { tags : string array; axes : axis array; has_preds : bool }

type join_spec = {
  anc : int;
  desc : int;
  dir : [ `Up | `Down ];
  push_filter : bool;
  trim_top : bool;
  est_pairs : int;
  mutable actual_pairs : int;
}

type ordered = {
  seed : int;
  joins : join_spec array;
  est_step : int array;
  actual_step : int array;
  est_cost : float;
  naive_cost : float;
}

type t = Naive | Holistic of { est_stream : int } | Ordered of ordered

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
  if chain.has_preds then invalid_arg "Plan.partition: the chain has predicates";
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

(* An element's ancestors are exactly the proper prefixes of its
   root-to-element tag path, so every estimate below is one dynamic
   program per synopsis path:

   - m.(j).(q): path positions 0..q spell a match of spine steps 0..j
     ending at q (upward/prefix chains — what left-to-right evaluation
     accumulates).

   Summing path counts over the DP flags gives exact spine-match and
   down-join pair counts, and the final step's spine count is the
   exact result cardinality on a predicate-free chain — the zero-proof
   the executor's empty shortcut relies on.  Up-phase numbers cannot
   be exact: a frontier element's remaining chain lives in its
   {e subtree} (its descendants' paths), not on its own path, and
   distinct-ancestor counts are not derivable from path counts (one
   path with count 5 may hang under one ancestor or five).  Each up
   join is therefore estimated by the unfiltered tag-to-tag ancestor
   pair count — exact for the join adjacent to the seed (whose
   descendant side is the whole seed tag) and a sound upper bound
   deeper, where execution restricts the descendant side to the
   surviving frontier.  Predicates are not modelled, so with
   predicates everything is an upper bound (sound for skipping: zero
   still proves empty). *)
let choose ?force_seed ?(allow_holistic = true) ~log chain =
  let n = Array.length chain.tags in
  if n < 2 then Naive
  else begin
    let syn = Update_log.synopsis log in
    let tids = chain_tids ~log chain in
    let tmatch j v = match tids.(j) with Some t -> t = v | None -> false in
    let tag_total j =
      match tids.(j) with Some t -> Path_synopsis.tag_total syn ~tid:t | None -> 0
    in
    let s_est = Array.make n 0 in
    let b_head = Array.make n 0 in
    let full_pairs = Array.make n 0 in
    let up_pairs = Array.make n 0 in
    let down_pairs = Array.make n 0 in
    Path_synopsis.iter syn (fun p c ->
        let last = Array.length p - 1 in
        let m = spine_matrix chain tmatch p in
        for i = 0 to n - 1 do
          if m.(i).(last) then s_est.(i) <- s_est.(i) + c
        done;
        (* Ancestor occurrences along this path for one join, by axis:
           Child looks only at the parent position, Desc at every
           proper prefix. *)
        let occ_of axis pred =
          match axis with
          | Child -> if last >= 1 && pred (last - 1) then 1 else 0
          | Desc ->
            let k = ref 0 in
            for q = 0 to last - 1 do
              if pred q then incr k
            done;
            !k
        in
        for i = 1 to n - 1 do
          if tmatch i p.(last) then begin
            full_pairs.(i) <-
              full_pairs.(i) + (c * occ_of chain.axes.(i) (fun q -> tmatch (i - 1) p.(q)));
            down_pairs.(i) <-
              down_pairs.(i) + (c * occ_of chain.axes.(i) (fun q -> m.(i - 1).(q)))
          end
        done);
    (* Up join i pairs tag t_i against the frontier at i+1 — a subset of
       the whole t_(i+1) tag, so the unfiltered tag-to-tag pair count
       bounds it (and equals it for the join adjacent to the seed).
       The frontier itself is at most the smaller of the tag and the
       pairs that produced it. *)
    for i = 0 to n - 2 do
      up_pairs.(i) <- full_pairs.(i + 1);
      b_head.(i) <- min (tag_total i) up_pairs.(i)
    done;
    let sum a i j =
      let s = ref 0 in
      for k = i to j do
        s := !s + a.(k)
      done;
      !s
    in
    let naive_cost = float_of_int (tag_total 0 + sum full_pairs 1 (n - 1)) in
    let cost k =
      float_of_int (tag_total k + sum up_pairs 0 (k - 1) + sum down_pairs (k + 1) (n - 1))
    in
    let seed =
      match force_seed with
      | Some k -> max 0 (min (n - 1) k)
      | None ->
        (* On cost ties prefer the later seed: up-join estimates are
           upper bounds (execution restricts the descendant side to the
           surviving frontier), down-join estimates are near-exact, so
           a tied tail-seed plan can only run at or under its estimate. *)
        let best = ref 0 and best_cost = ref (cost 0) in
        for k = 1 to n - 1 do
          let ck = cost k in
          if ck <= !best_cost then begin
            best := k;
            best_cost := ck
          end
        done;
        !best
    in
    let est_cost = cost seed in
    let est_stream = sum (Array.init n (fun i -> tag_total i)) 0 (n - 1) in
    if
      allow_holistic && (not chain.has_preds) && force_seed = None
      && float_of_int (8 * est_stream) < est_cost
      && float_of_int (8 * est_stream) < naive_cost
    then Holistic { est_stream }
    else begin
      let push = Update_log.segment_count log > 1 in
      let joins = ref [] in
      (* Built back to front: downs prepended outermost-first so they
         end up innermost-first (execution order), then ups prepended
         in front of them, nearest the seed first (also execution
         order).  The executor matches joins by (dir, anc); the array
         order is what [explain] renders. *)
      for i = n - 1 downto seed + 1 do
        joins :=
          {
            anc = i - 1;
            desc = i;
            dir = `Down;
            push_filter = push;
            trim_top = push;
            est_pairs = down_pairs.(i);
            actual_pairs = -1;
          }
          :: !joins
      done;
      for i = 0 to seed - 1 do
        joins :=
          {
            anc = i;
            desc = i + 1;
            dir = `Up;
            push_filter = push;
            trim_top = push;
            est_pairs = up_pairs.(i);
            actual_pairs = -1;
          }
          :: !joins
      done;
      let est_step = Array.init n (fun i -> if i < seed then b_head.(i) else s_est.(i)) in
      Ordered
        {
          seed;
          joins = Array.of_list !joins;
          est_step;
          actual_step = Array.make n (-1);
          est_cost;
          naive_cost;
        }
    end
  end

let explain chain plan =
  let step_name i = chain.tags.(i) in
  let axis_str i = match chain.axes.(i) with Desc -> "//" | Child -> "/" in
  let card v = if v < 0 then "-" else string_of_int v in
  match plan with
  | Naive -> "plan: naive (left-to-right pairwise)"
  | Holistic { est_stream } ->
    Printf.sprintf "plan: holistic, run as a partition scan (est %d streamed elements)"
      est_stream
  | Ordered o ->
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "plan: ordered, seed step %d (%s); est cost %.0f vs naive %.0f\n"
         o.seed (step_name o.seed) o.est_cost o.naive_cost);
    Array.iteri
      (fun j js ->
        Buffer.add_string b
          (Printf.sprintf "  join %d (%s): %s%s%s  engine=lazy-join%s  est %d pairs, actual %s\n"
             (j + 1)
             (match js.dir with `Up -> "up" | `Down -> "down")
             (step_name js.anc) (axis_str js.desc) (step_name js.desc)
             (if js.push_filter || js.trim_top then
                Printf.sprintf "(%s)"
                  (String.concat ","
                     ((if js.push_filter then [ "push" ] else [])
                     @ if js.trim_top then [ "trim" ] else []))
              else "(plain)")
             js.est_pairs (card js.actual_pairs)))
      o.joins;
    Buffer.add_string b "  steps (est/actual): ";
    Array.iteri
      (fun i tag ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b
          (Printf.sprintf "%s %d/%s" tag o.est_step.(i) (card o.actual_step.(i))))
      chain.tags;
    Buffer.contents b

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
