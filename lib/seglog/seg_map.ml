open Lxu_util

(* Slots [0, n_slots) are in use or on [free] (holding gp -1, which no
   shift moves); the root is slot 0, gp 0. *)
type t = { mutable gps : int array; mutable n_slots : int; mutable free : int list }

let create () = { gps = Array.make 64 0; n_slots = 1; free = [] }

let alloc t gp =
  match t.free with
  | s :: rest ->
    t.free <- rest;
    t.gps.(s) <- gp;
    s
  | [] ->
    let s = t.n_slots in
    if s = Array.length t.gps then begin
      let bigger = Array.make (2 * s) 0 in
      Array.blit t.gps 0 bigger 0 s;
      t.gps <- bigger
    end;
    t.gps.(s) <- gp;
    t.n_slots <- s + 1;
    s

let free t slot =
  t.gps.(slot) <- -1;
  t.free <- slot :: t.free

let gp t (n : Er_node.t) = t.gps.(n.slot)
let set t (n : Er_node.t) g = t.gps.(n.slot) <- g

let shift t ~from delta =
  let gps = t.gps and shifted = ref 0 in
  for i = 1 to t.n_slots - 1 do
    let g = Array.unsafe_get gps i in
    if g >= from then begin
      Array.unsafe_set gps i (g + delta);
      incr shifted
    end
  done;
  !shifted

let child_index t (n : Er_node.t) g =
  Vec.lower_bound n.children ~compare:(fun c -> if gp t c <= g then -1 else 0)

let covering_child t (n : Er_node.t) g =
  (* Only the last child starting before [g] can cover it. *)
  let i = child_index t n g - 1 in
  if i < 0 then -1
  else
    let c = Vec.get n.children i in
    let cg = gp t c in
    if cg < g && g < cg + c.len then i else -1

(* From the last child [c] starting before [g], whose gp places it:
   [gp c = gp n + (c.lp - tombstoned_before n c.lp) +] the lengths of
   its earlier siblings, so the children before [g] take [gp c - gp n
   - (c.lp - tombstoned_before n c.lp) + c.len] of the bytes before
   [g]. *)
let own_offset t (n : Er_node.t) g =
  match child_index t n (g - 1) with
  | 0 -> g - gp t n
  | i ->
    let c = Vec.get n.children (i - 1) in
    g - gp t c - c.len + c.lp - Er_node.tombstoned_before n c.lp

let cursor t n = Er_node.cursor (Er_node.translator n) ~gp:(gp t n)

let freeze t = { gps = Array.sub t.gps 0 t.n_slots; n_slots = t.n_slots; free = [] }

let check t (root : Er_node.t) =
  let fail fmt = Printf.ksprintf failwith fmt in
  let used = Array.make t.n_slots false in
  List.iter (fun s -> used.(s) <- true) t.free;
  Er_node.iter_subtree root (fun n ->
      let s = n.slot in
      if s < 0 || s >= t.n_slots || used.(s) then
        fail "segment %d: slot %d is out of range, shared or free" n.sid s;
      used.(s) <- true);
  if root.slot <> 0 then fail "root is not at slot 0";
  if gp t root <> 0 then fail "root gp moved to %d" (gp t root);
  (* Each child's gp from its parent's: the live own bytes before its
     lp, then its earlier siblings.  Children are lp-sorted and
     tombstones sorted and disjoint, so one merge walks both. *)
  Er_node.iter_subtree root (fun p ->
      let tombs = p.tombstones in
      let k = ref 0 and dead = ref 0 and before = ref 0 in
      Vec.iter
        (fun (c : Er_node.t) ->
          while !k < Vec.length tombs && snd (Vec.get tombs !k) <= c.lp do
            let a, b = Vec.get tombs !k in
            dead := !dead + (b - a);
            incr k
          done;
          let partial =
            if !k < Vec.length tombs then max 0 (c.lp - fst (Vec.get tombs !k)) else 0
          in
          let expected = gp t p + (c.lp - !dead - partial) + !before in
          if gp t c <> expected then
            fail "segment %d: gp %d, its place under segment %d gives %d" c.sid (gp t c) p.sid
              expected;
          before := !before + c.len)
        p.children)
