open Lazy_xml
module Rng = Lxu_workload.Rng

let seal payload = payload ^ Printf.sprintf "crc %08x\n" (Lxu_storage.Crc32.string payload)

(* [crc XXXXXXXX\n] *)
let trailer_bytes = 13

let payload db =
  Crash_harness.with_dir "payload" (fun dir ->
      let path = Filename.concat dir "snapshot" in
      Lazy_db.save db path;
      let bytes = Crash_harness.read_file path in
      String.sub bytes 0 (String.length bytes - trailer_bytes))

let ops () = Crash_harness.gen_ops ~seed:7 ~target_ops:25

type tally = { accepted : int; refused : int }

let run ~what ~seed ~rounds base load =
  let rng = Rng.create seed in
  let accepted = ref 0 and refused = ref 0 in
  for round = 1 to rounds do
    let mutant = Parser_fuzz.mutate rng base in
    let fail why =
      failwith
        (Printf.sprintf "%s fuzz seed %d round %d: %s on the mutant \"%s\"" what seed round why
           (Parser_fuzz.preview mutant))
    in
    match load mutant with
    | db -> (
      match Lazy_db.check db with
      | () -> incr accepted
      | exception e -> fail ("the loaded store fails its check: " ^ Printexc.to_string e))
    | exception (Failure _ | Sys_error _) -> incr refused
    | exception e -> fail (Printexc.to_string e ^ " escaped")
  done;
  { accepted = !accepted; refused = !refused }

let snapshot_base () =
  let db = Lazy_db.create ~index_attributes:true () in
  List.iter (Crash_harness.apply db) (ops ());
  payload db

let snapshots ~seed ~rounds =
  let base = snapshot_base () in
  Crash_harness.with_dir "snapfuzz" (fun dir ->
      let path = Filename.concat dir "snapshot" in
      run ~what:"snapshot" ~seed ~rounds base (fun mutant ->
          Crash_harness.write_file path (seal mutant);
          Lazy_db.load path))

let moved_gps ~seed ~rounds =
  let lines = Array.of_list (String.split_on_char '\n' (snapshot_base ())) in
  let segs =
    Array.of_list
      (List.filter (fun i -> String.starts_with ~prefix:"seg " lines.(i))
         (List.init (Array.length lines) Fun.id))
  in
  let rng = Rng.create seed in
  Crash_harness.with_dir "gpfuzz" (fun dir ->
      let path = Filename.concat dir "snapshot" in
      for round = 1 to rounds do
        let i = Rng.pick rng segs in
        let delta = (1 + Rng.int rng 3) * if Rng.bool rng then 1 else -1 in
        (* [seg sid parent gp ...]: the gp is the fourth word. *)
        let moved =
          String.concat " "
            (List.mapi
               (fun j w -> if j = 3 then string_of_int (int_of_string w + delta) else w)
               (String.split_on_char ' ' lines.(i)))
        in
        let mutant = Array.copy lines in
        mutant.(i) <- moved;
        Crash_harness.write_file path (seal (String.concat "\n" (Array.to_list mutant)));
        match Lazy_db.load path with
        | exception Failure _ -> ()
        | _ ->
          failwith
            (Printf.sprintf "gp fuzz seed %d round %d: the mutant line \"%s\" loaded" seed round
               moved)
      done);
  rounds

let wals ~seed ~rounds =
  let base =
    Crash_harness.with_dir "walfuzz" (fun dir ->
        let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
        List.iter (Crash_harness.apply db) (ops ());
        Lazy_db.close db;
        Crash_harness.read_file (Lxu_storage.Wal_store.wal_path dir))
  in
  run ~what:"wal" ~seed ~rounds base (fun mutant ->
      fst (Crash_harness.recover_image ~tag:"walfuzz" ~wal_bytes:mutant ()))

let run_corpus ~seed ~rounds =
  let s = snapshots ~seed ~rounds and w = wals ~seed ~rounds in
  let g = moved_gps ~seed ~rounds in
  Printf.printf
    "format fuzz: %d snapshot mutants (%d loaded, %d refused), %d WAL mutants (%d recovered, %d \
     refused), every loaded store checked; %d moved-gp snapshots, all refused\n\
     %!"
    rounds s.accepted s.refused rounds w.accepted w.refused g
