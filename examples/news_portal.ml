(* A news portal: concurrent readers querying while the editorial feed
   keeps publishing — exercising the three capabilities beyond single
   joins: path expressions with twig predicates, the MVCC shared-access
   wrapper (the paper's §6 concurrency direction), and snapshots.

   Run with:  dune exec examples/news_portal.exe *)

open Lazy_xml
open Lxu_workload

let sections = [| "world"; "tech"; "sport" |]

let article rng id =
  Printf.sprintf
    "<article id=\"a%d\"><headline>story %d</headline><body><p>%s</p><p>%s</p></body>%s</article>"
    id id
    (String.concat " " (List.init 6 (fun _ -> "word")))
    (String.concat " " (List.init 4 (fun _ -> "word")))
    (if Rng.bool rng then "<media><image/><caption>c</caption></media>" else "")

let () =
  let rng = Rng.create 11 in
  let db = Shared_db.of_db (Lazy_db.create ~index_attributes:true ()) in
  Shared_db.write db (fun inner ->
      Lazy_db.insert inner ~gp:0 "<portal><world></world><tech></tech><sport></sport></portal>");
  let path_count path =
    let steps = Path_query.parse_exn path in
    Shared_db.read db (fun snap -> Path_query.count snap steps)
  in

  (* Editorial feed: 120 articles published into random sections, one
     segment each, from a writer domain. *)
  let publisher =
    Domain.spawn (fun () ->
        for id = 1 to 120 do
          let section = Rng.pick rng sections in
          Shared_db.write db (fun inner ->
              let text = Lazy_db.text inner in
              let marker = "<" ^ section ^ ">" in
              let m = String.length marker in
              let rec find i = if String.sub text i m = marker then i + m else find (i + 1) in
              Lazy_db.insert inner ~gp:(find 0) (article rng id))
        done)
  in

  (* Readers keep asking twig questions while publishing runs. *)
  let reader name path =
    Domain.spawn (fun () ->
        (* Keep polling until the feed is complete. *)
        let last = ref 0 in
        while path_count "//article" < 120 do
          last := path_count path
        done;
        last := path_count path;
        (name, path, !last))
  in
  let readers =
    [
      reader "illustrated" "//article[media]/headline";
      reader "tech stories" "//tech//article";
      reader "captioned images" "//media[image][caption]";
    ]
  in
  Domain.join publisher;
  List.iter
    (fun d ->
      let name, path, last = Domain.join d in
      Printf.printf "reader %-18s %-32s last saw %d matches\n" name path last)
    readers;

  (* Final consistent answers. *)
  Printf.printf "\nfinal state: %d articles published\n"
    (path_count "//article");
  List.iter
    (fun path -> Printf.printf "  %-40s -> %d\n" path (path_count path))
    [
      "//article[media]/headline";
      "//article/@id";
      "/portal/tech/article";
      "//media[image][caption]";
      "//article[media[caption]]//p";
    ];
  let reads, writes = Shared_db.stats db in
  Printf.printf "lock traffic: %d shared reads, %d exclusive writes\n" reads writes;

  (* Nightly snapshot: immutable local labels survive a save/load
     round trip byte for byte. *)
  let snap = Filename.temp_file "portal" ".snap" in
  Shared_db.read db (fun inner -> Lazy_db.save inner snap);
  let restored = Lazy_db.load snap in
  Sys.remove snap;
  Printf.printf "\nsnapshot restored: %d segments, answers intact: %b\n"
    (Lazy_db.segment_count restored)
    (Path_query.count restored (Path_query.parse_exn "//article[media]/headline")
    = path_count "//article[media]/headline")
