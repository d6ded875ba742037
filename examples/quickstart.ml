(* Quickstart: the lazy XML database in five minutes.

   Run with:  dune exec examples/quickstart.exe

   The database is one "super document" edited by inserting and
   removing well-formed XML fragments at byte positions.  Element
   labels never change on update — that is the paper's lazy trick —
   yet structural joins (anc//desc) stay fast. *)

open Lazy_xml

let show db title =
  Printf.printf "%-28s %s\n" (title ^ ":") (Lazy_db.text db)

let () =
  let db = Lazy_db.create () in

  (* 1. Start with a catalog skeleton. *)
  Lazy_db.insert db ~gp:0 "<catalog></catalog>";
  show db "empty catalog";

  (* 2. Insert a product segment inside <catalog> (position 9 is just
        after the opening tag). *)
  Lazy_db.insert db ~gp:9 "<product><name>anvil</name><price>12</price></product>";
  show db "one product";

  (* 3. Batch-insert another segment at the same spot: segments are
        cheap, nothing gets relabelled. *)
  Lazy_db.insert db ~gp:9 "<product><name>rocket</name><price>99</price></product>";
  show db "two products";

  (* 4. Query: a structural join. *)
  let pairs, stats = Lazy_db.query db ~anc:"product" ~desc:"price" () in
  Printf.printf "\nproduct//price -> %d pairs (%d cross-segment, %d in-segment)\n"
    (List.length pairs) stats.Lxu_join.Lazy_join.cross_pairs stats.Lxu_join.Lazy_join.in_pairs;
  List.iter (fun (a, d) -> Printf.printf "  product@%d contains price@%d\n" a d) pairs;

  (* 5. Remove the rocket (its byte range) and query again. *)
  let text = Lazy_db.text db in
  let needle = "<product><name>rocket</name><price>99</price></product>" in
  let rec find i =
    if String.sub text i (String.length needle) = needle then i else find (i + 1)
  in
  let at = find 0 in
  Lazy_db.remove db ~gp:at ~len:(String.length needle);
  show db "\nafter removal";
  Printf.printf "product//price -> %d pairs\n" (Lazy_db.count db ~anc:"product" ~desc:"price" ());

  (* 6. Peek at the machinery. *)
  Printf.printf "\nsegments: %d   elements: %d   index bytes: %d\n"
    (Lazy_db.segment_count db) (Lazy_db.element_count db) (Lazy_db.size_bytes db);

  (* 7. Maintenance-hours rebuild: collapse everything to one segment. *)
  Lazy_db.rebuild db;
  Printf.printf "after rebuild: %d segment(s), same text: %b\n"
    (Lazy_db.segment_count db)
    (Lazy_db.text db <> "")
