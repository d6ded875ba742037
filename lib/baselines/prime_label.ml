open Lxu_util

type node = { self : int; label : Bignum.t }

type group = { mutable sc : Bignum.t; mutable modulus : Bignum.t }

type t = {
  k : int;
  capacity : int;
  primes : Prime_gen.t;
  mutable next_prime_index : int;
  order : node Vec.t;  (* nodes in document order *)
  groups : group Vec.t;  (* group g covers order[g*k .. g*k+k-1] *)
  mutable sc_recomputations : int;
}

let create ?(k = 10) ?(capacity = 20_000) () =
  if k < 1 then invalid_arg "Prime_label.create: k < 1";
  let primes = Prime_gen.create () in
  (* Skip primes <= capacity so every order number is a valid residue. *)
  let idx = ref 0 in
  while Prime_gen.nth primes !idx <= capacity do
    incr idx
  done;
  {
    k;
    capacity;
    primes;
    next_prime_index = !idx;
    order = Vec.create ();
    groups = Vec.create ();
    sc_recomputations = 0;
  }

let size t = Vec.length t.order
let sc_recomputations t = t.sc_recomputations
let label n = n.label

let is_ancestor a d =
  a.self <> d.self && Bignum.divisible d.label ~by:a.label

(* Recomputes the SC value of group [g] from the current order. *)
let recompute_group t g =
  let lo = g * t.k in
  let hi = min (Vec.length t.order) (lo + t.k) in
  let pairs = List.init (hi - lo) (fun i -> (lo + i, (Vec.get t.order (lo + i)).self)) in
  let sc, modulus = Crt.solve pairs in
  let grp = Vec.get t.groups g in
  grp.sc <- sc;
  grp.modulus <- modulus;
  t.sc_recomputations <- t.sc_recomputations + 1

let insert t ~parent ~order_pos =
  if size t >= t.capacity then invalid_arg "Prime_label.insert: capacity exceeded";
  if order_pos < 0 || order_pos > size t then
    invalid_arg "Prime_label.insert: order_pos out of range";
  let self = Prime_gen.nth t.primes t.next_prime_index in
  t.next_prime_index <- t.next_prime_index + 1;
  let label =
    match parent with
    | None -> Bignum.of_int self
    | Some p -> Bignum.mul_small p.label self
  in
  let node = { self; label } in
  Vec.insert_at t.order order_pos node;
  if (size t + t.k - 1) / t.k > Vec.length t.groups then
    Vec.push t.groups { sc = Bignum.zero; modulus = Bignum.one };
  (* Orders at and after the insertion point shifted: the insertion
     group and everything after it must be recomputed. *)
  for g = order_pos / t.k to Vec.length t.groups - 1 do
    recompute_group t g
  done;
  node

let append t ~parent = insert t ~parent ~order_pos:(size t)

let group_of t n =
  (* Self labels are unique, so scanning for the node's group by
     membership is unambiguous. *)
  let rec find g =
    if g >= Vec.length t.groups then failwith "Prime_label: node not found"
    else begin
      let lo = g * t.k in
      let hi = min (size t) (lo + t.k) in
      let rec member i = i < hi && ((Vec.get t.order i).self = n.self || member (i + 1)) in
      if member lo then g else find (g + 1)
    end
  in
  find 0

let order_of t n =
  let g = Vec.get t.groups (group_of t n) in
  Crt.residue g.sc n.self

let label_bits t =
  Vec.fold_left (fun acc n -> acc + Bignum.bit_length n.label) 0 t.order

let sc_bits t = Vec.fold_left (fun acc g -> acc + Bignum.bit_length g.sc) 0 t.groups

let check t =
  Vec.iteri
    (fun i n ->
      let o = order_of t n in
      if o <> i then
        failwith (Printf.sprintf "Prime_label: node at position %d recovers order %d" i o))
    t.order
