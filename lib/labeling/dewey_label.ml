type t = int array

let root = [| 1 |]

(* [land 1] is 1 for negative odds too, so one test covers all ints. *)
let odd v = v land 1 = 1

let level lbl = Array.fold_left (fun acc v -> if odd v then acc + 1 else acc) 0 lbl - 1

let is_prefix a b =
  Array.length a < Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let is_ancestor a b = is_prefix a b

let parent lbl =
  if Array.length lbl <= 1 then None
  else begin
    (* Strip the final odd component and the even carets before it. *)
    let i = ref (Array.length lbl - 1) in
    decr i;
    while !i >= 0 && not (odd lbl.(!i)) do
      decr i
    done;
    if !i < 0 then None else Some (Array.sub lbl 0 (!i + 1))
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
    else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

let nth_child parent_lbl i =
  if i < 0 then invalid_arg "Dewey_label.nth_child: negative index";
  Array.append parent_lbl [| (2 * i) + 1 |]

(* A valid pos-path is even* odd. *)
let valid_pospath p =
  let n = Array.length p in
  n > 0
  && odd p.(n - 1)
  &&
  let rec go i = i >= n - 1 || ((not (odd p.(i))) && go (i + 1)) in
  go 0

let pospath_under ~parent:p lbl =
  if not (is_prefix p lbl) then None
  else begin
    let tail = Array.sub lbl (Array.length p) (Array.length lbl - Array.length p) in
    if valid_pospath tail then Some tail else None
  end

(* Pos-path strictly after [rest] at its first component. *)
let after rest = [| (if odd rest.(0) then rest.(0) + 2 else rest.(0) + 1) |]

(* Pos-path strictly before [rest] at its first component. *)
let before rest = [| (if odd rest.(0) then rest.(0) - 2 else rest.(0) - 1) |]

(* An odd integer strictly between av and bv, if one exists. *)
let odd_between av bv =
  if bv - av < 2 then None
  else begin
    let m = av + ((bv - av) / 2) in
    if odd m then Some m
    else if m + 1 < bv then Some (m + 1)
    else if m - 1 > av then Some (m - 1)
    else None
  end

let between a b =
  (* First differing index exists: pos-paths are prefix-free. *)
  let rec diff i =
    if i >= Array.length a || i >= Array.length b then
      invalid_arg "Dewey_label: bounds are not distinct pos-paths"
    else if a.(i) <> b.(i) then i
    else diff (i + 1)
  in
  let i = diff 0 in
  let av = a.(i) and bv = b.(i) in
  if av > bv then invalid_arg "Dewey_label: left bound not before right bound";
  let prefix = Array.sub a 0 i in
  match odd_between av bv with
  | Some m -> Array.append prefix [| m |]
  | None ->
    if bv - av = 2 then
      (* av odd, av+1 is the only gap value: caret then odd. *)
      Array.append prefix [| av + 1; 1 |]
    else if odd av then
      (* bv = av + 1; a's pos-path ends at i, b continues with carets. *)
      Array.append prefix
        (Array.append [| bv |] (before (Array.sub b (i + 1) (Array.length b - i - 1))))
    else
      (* bv = av + 1 with av even: a continues, b ends at i. *)
      Array.append prefix
        (Array.append [| av |] (after (Array.sub a (i + 1) (Array.length a - i - 1))))

let child_between ~parent:p ~left ~right =
  let extract side = function
    | None -> None
    | Some lbl -> begin
      match pospath_under ~parent:p lbl with
      | Some pp -> Some pp
      | None ->
        invalid_arg (Printf.sprintf "Dewey_label.child_between: %s is not a child" side)
    end
  in
  let l = extract "left" left and r = extract "right" right in
  let pospath =
    match (l, r) with
    | None, None -> [| 1 |]
    | Some l, None -> after l
    | None, Some r -> before r
    | Some l, Some r -> between l r
  in
  Array.append p pospath

(* Variable-length size estimate: a small length header plus the
   magnitude bits of each component, echoing ORDPATH's bit strings. *)
let bit_size lbl =
  Array.fold_left
    (fun acc v ->
      let v = abs v in
      let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
      acc + 4 + max 1 (width 0 v))
    0 lbl

let to_string lbl =
  String.concat "." (Array.to_list (Array.map string_of_int lbl))

let pp fmt lbl = Format.pp_print_string fmt (to_string lbl)
