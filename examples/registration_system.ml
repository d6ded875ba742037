(* The paper's second motivating scenario (§1): an on-line registration
   system.  Every submitted form becomes an auto-generated XML segment
   of 20-30 elements inserted into the database; cancellations remove a
   whole segment.  Labels of already-registered users never change.

   Run with:  dune exec examples/registration_system.exe *)

open Lazy_xml
open Lxu_workload

let occupations = [| "engineer"; "librarian"; "pilot"; "chef"; "analyst" |]

let registration rng id =
  Printf.sprintf
    "<registration id=\"r%d\"><user><name>user-%d</name><email>u%d@example.org</email></user><occupation>%s</occupation><address><city>city-%d</city><zip>%05d</zip></address><preferences><newsletter>%b</newsletter><language>en</language></preferences></registration>"
    id id id (Rng.pick rng occupations) (Rng.int rng 100) (Rng.int rng 100000)
    (Rng.bool rng)

let () =
  let rng = Rng.create 7 in
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 "<registry></registry>";
  let append_point () = Lazy_db.doc_length db - String.length "</registry>" in

  (* 200 submissions arrive. *)
  let ranges = Hashtbl.create 64 in
  for id = 1 to 200 do
    let seg = registration rng id in
    let gp = append_point () in
    Lazy_db.insert db ~gp seg;
    Hashtbl.add ranges id (String.length seg)
  done;
  Printf.printf "200 registrations: %d elements in %d segments, log %d bytes\n"
    (Lazy_db.element_count db) (Lazy_db.segment_count db) (Lazy_db.size_bytes db);

  (* Some users cancel: remove their whole segment by byte range.  We
     locate it in the current text by its id attribute. *)
  let cancel id =
    let text = Lazy_db.text db in
    let needle = Printf.sprintf "<registration id=\"r%d\">" id in
    let n = String.length needle in
    let rec find i = if String.sub text i n = needle then i else find (i + 1) in
    let s = find 0 in
    let len = Hashtbl.find ranges id in
    Lazy_db.remove db ~gp:s ~len
  in
  List.iter cancel [ 3; 77; 150 ];
  Printf.printf "after 3 cancellations: %d registrations remain\n"
    (Lazy_db.count db ~anc:"registry" ~desc:"registration" ());

  (* Structural queries over the registry. *)
  List.iter
    (fun (anc, desc) ->
      Printf.printf "  %s//%s -> %d\n" anc desc (Lazy_db.count db ~anc ~desc ()))
    [
      ("registration", "email");
      ("registration", "newsletter");
      ("user", "name");
      ("registration", "zip");
    ];

  (* Parent-child axis: direct children only. *)
  Printf.printf "  registration/occupation (child axis) -> %d\n"
    (Lazy_db.count db ~axis:Lxu_util.Axis.Child ~anc:"registration" ~desc:"occupation" ());
  Printf.printf "  registration/name (child axis, none expected) -> %d\n"
    (Lazy_db.count db ~axis:Lxu_util.Axis.Child ~anc:"registration" ~desc:"name" ())
