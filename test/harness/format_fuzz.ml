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

let snapshots ~seed ~rounds =
  let db = Lazy_db.create ~index_attributes:true () in
  List.iter (Crash_harness.apply db) (ops ());
  let base = payload db in
  Crash_harness.with_dir "snapfuzz" (fun dir ->
      let path = Filename.concat dir "snapshot" in
      run ~what:"snapshot" ~seed ~rounds base (fun mutant ->
          Crash_harness.write_file path (seal mutant);
          Lazy_db.load path))

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
  Printf.printf
    "format fuzz: %d snapshot mutants (%d loaded, %d refused), %d WAL mutants (%d recovered, %d \
     refused), every loaded store checked\n\
     %!"
    rounds s.accepted s.refused rounds w.accepted w.refused
