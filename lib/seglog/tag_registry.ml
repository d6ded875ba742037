open Lxu_util

(* [shared]: a frozen clone may hold [ids] and [names], so the next new
   tag copies them first. *)
type t = { mutable ids : (string, int) Hashtbl.t; mutable names : string Vec.t; mutable shared : bool }

let create () = { ids = Hashtbl.create 64; names = Vec.create (); shared = false }

let intern t tag =
  match Hashtbl.find_opt t.ids tag with
  | Some tid -> tid
  | None ->
    if t.shared then begin
      t.ids <- Hashtbl.copy t.ids;
      t.names <- Vec.copy t.names;
      t.shared <- false
    end;
    let tid = Vec.length t.names in
    Hashtbl.add t.ids tag tid;
    Vec.push t.names tag;
    tid

let clone t =
  t.shared <- true;
  { t with shared = true }

let find t tag = Hashtbl.find_opt t.ids tag

let name t tid =
  if tid < 0 || tid >= Vec.length t.names then
    invalid_arg "Tag_registry.name: unknown tid";
  Vec.get t.names tid

let count t = Vec.length t.names
