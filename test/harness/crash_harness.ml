open Lazy_xml
module Rng = Lxu_workload.Rng
module Wal = Lxu_storage.Wal
module Sim_file = Lxu_storage.Sim_file
module Recovery = Lxu_storage.Recovery

let vocabulary = [| "a"; "b"; "c"; "d" |]

let fragments =
  [|
    "<a/>";
    "<b>t</b>";
    "<c><a/><b/></c>";
    "<d k=\"v\"><b/></d>";
    "<a><d k=\"w\">x</d></a>";
  |]

let string_insert s ~gp frag =
  String.sub s 0 gp ^ frag ^ String.sub s gp (String.length s - gp)

let element_extents text =
  if text = "" then []
  else begin
    let nodes = Lxu_xml.Parser.parse_fragment text in
    let extents = ref [] in
    Lxu_xml.Tree.iter_elements nodes (fun e ~level:_ ->
        if e.Lxu_xml.Tree.e_start >= 0 then
          extents := (e.Lxu_xml.Tree.e_start, e.Lxu_xml.Tree.e_end) :: !extents);
    List.rev !extents
  end

(* Operations are generated against a text mirror so every one is
   valid by construction: the recovery differential must test crash
   handling, not update validation. *)
let gen_ops ~seed ~target_ops =
  let rng = Rng.create seed in
  let text = ref "" in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  for _ = 1 to target_ops do
    let roll = Rng.int rng 100 in
    if !text = "" || roll < 55 then begin
      let frag = Rng.pick rng fragments in
      let points = ref [] in
      for gp = 0 to String.length !text do
        if Lxu_xml.Parser.is_well_formed_fragment (string_insert !text ~gp frag) then
          points := gp :: !points
      done;
      match !points with
      | [] -> ()
      | ps ->
        let gp = List.nth ps (Rng.int rng (List.length ps)) in
        emit (Wal.Insert { gp; text = frag });
        text := string_insert !text ~gp frag
    end
    else begin
      match element_extents !text with
      | [] -> ()
      | extents ->
        let s, e = List.nth extents (Rng.int rng (List.length extents)) in
        if roll < 80 then begin
          emit (Wal.Remove { gp = s; len = e - s });
          text := String.sub !text 0 s ^ String.sub !text e (String.length !text - e)
        end
        else if roll < 93 then emit (Wal.Pack { gp = s; len = e - s })
        else emit Wal.Rebuild
    end
  done;
  List.rev !ops

let apply db = function
  | Wal.Insert { gp; text } -> Lazy_db.insert db ~gp text
  | Wal.Remove { gp; len } -> Lazy_db.remove db ~gp ~len
  | Wal.Pack { gp; len } -> Lazy_db.pack_subtree db ~gp ~len
  | Wal.Rebuild -> Lazy_db.rebuild db

let op_to_string = function
  | Wal.Insert { gp; text } -> Printf.sprintf "insert gp=%d %S" gp text
  | Wal.Remove { gp; len } -> Printf.sprintf "remove gp=%d len=%d" gp len
  | Wal.Pack { gp; len } -> Printf.sprintf "pack gp=%d len=%d" gp len
  | Wal.Rebuild -> "rebuild"

let ops_to_string ops = String.concat "; " (List.map op_to_string ops)

let fingerprint db =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Lazy_db.text db);
  Buffer.add_string buf (Printf.sprintf "|elems=%d|segs=%d" (Lazy_db.element_count db)
                           (Lazy_db.segment_count db));
  let descs = Array.to_list vocabulary @ [ "@k"; "@w" ] in
  Array.iter
    (fun anc ->
      List.iter
        (fun desc ->
          List.iter
            (fun axis ->
              let pairs, _ = Lazy_db.query db ~axis ~anc ~desc () in
              Buffer.add_string buf (Printf.sprintf "|%s/%s:" anc desc);
              List.iter (fun (a, d) -> Buffer.add_string buf (Printf.sprintf "%d-%d," a d)) pairs)
            [ Lxu_util.Axis.Desc; Lxu_util.Axis.Child ])
        descs)
    vocabulary;
  Buffer.contents buf

(* --- filesystem helpers ---------------------------------------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lazyxml_crash_%d_%s_%d" (Unix.getpid ()) tag !counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let copy_file src dst = write_file dst (read_file src)

(* --- the differential ------------------------------------------------- *)

let check ~ctx expected db =
  let got = fingerprint db in
  if got <> expected then
    failwith
      (Printf.sprintf "%s: recovered state diverges\n  expected %S\n  got      %S" ctx expected got)

(* Recovers the crashed image [wal_prefix] (with [snapshot] when the
   workload checkpointed) through the real directory path, and
   returns the database plus report. *)
let recover_image ~tag ~snapshot ~wal_prefix =
  let dir = fresh_dir tag in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (match snapshot with
      | Some src -> copy_file src (Lxu_storage.Wal_store.snapshot_path dir)
      | None -> ());
      write_file (Lxu_storage.Wal_store.wal_path dir) wal_prefix;
      let db, report = Lazy_db.recover dir in
      Lazy_db.close db;
      (db, report))

(* save . load . save: the checkpoint at [path] read back and written
   again at its LSN is byte-identical, which pins the snapshot format
   to what the store holds. *)
let check_resave ~ctx path =
  let lsn, log = Recovery.read_snapshot ~path () in
  let again = path ^ ".resave" in
  Recovery.write_snapshot ~path:again ~lsn log;
  let saved = read_file path and resaved = read_file again in
  Sys.remove again;
  if saved <> resaved then failwith (ctx ^ ": a loaded checkpoint saves different bytes")

let run_one_inner ?checkpoint_at ~seed ~ops () =
  let n = List.length ops in
  let checkpoint_at =
    match checkpoint_at with Some k when k >= n -> None | other -> other
  in
  let dir = fresh_dir "wal" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let durable = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      let reference = Lazy_db.create ~index_attributes:true () in
      (* fps.(i) = fingerprint after the first i operations. *)
      let fps = Array.make (n + 1) "" in
      fps.(0) <- fingerprint reference;
      List.iteri
        (fun i op ->
          apply durable op;
          (match checkpoint_at with
          | Some k when k = i + 1 ->
            Lazy_db.checkpoint durable;
            check_resave
              ~ctx:(Printf.sprintf "seed %d checkpoint" seed)
              (Lxu_storage.Wal_store.snapshot_path dir)
          | _ -> ());
          apply reference op;
          fps.(i + 1) <- fingerprint reference)
        ops;
      Lazy_db.close durable;
      let wal_bytes = read_file (Lxu_storage.Wal_store.wal_path dir) in
      let snapshot =
        match checkpoint_at with
        | Some _ -> Some (Lxu_storage.Wal_store.snapshot_path dir)
        | None -> None
      in
      let base = match checkpoint_at with Some k -> k | None -> 0 in
      let scan = Wal.scan wal_bytes in
      (match scan.Wal.corruption with
      | Some why -> failwith (Printf.sprintf "seed %d: clean WAL scans dirty: %s" seed why)
      | None -> ());
      let records = Array.of_list scan.Wal.records in
      if Array.length records <> n - base then
        failwith
          (Printf.sprintf "seed %d: %d WAL records for %d post-checkpoint ops" seed
             (Array.length records) (n - base));
      let recoveries = ref 0 in
      let boundary_off j = if j = 0 then Wal.header_bytes else records.(j - 1).Wal.end_off in
      (* Crash at every record boundary: after the header, and after
         each record. *)
      for j = 0 to Array.length records do
        let prefix = String.sub wal_bytes 0 (boundary_off j) in
        let ctx = Printf.sprintf "seed %d boundary %d/%d" seed j (Array.length records) in
        incr recoveries;
        match snapshot with
        | None ->
          let log, report = Recovery.recover_bytes prefix in
          if report.Recovery.corruption <> None then
            failwith (ctx ^ ": clean prefix reported corrupt");
          if report.Recovery.records_applied <> j then
            failwith
              (Printf.sprintf "%s: applied %d of %d records" ctx report.Recovery.records_applied j);
          check ~ctx fps.(base + j) (Lazy_db.of_log log)
        | Some _ ->
          let db, report = recover_image ~tag:"boundary" ~snapshot ~wal_prefix:prefix in
          if report.Recovery.records_applied <> j then
            failwith
              (Printf.sprintf "%s: applied %d of %d records" ctx report.Recovery.records_applied j);
          check ~ctx fps.(base + j) db
      done;
      (* Torn / corrupt / duplicated tails: the damaged last record
         must cost exactly itself. *)
      if Array.length records > 0 then begin
        let last = Array.length records - 1 in
        let tail_start = boundary_off last in
        let head = String.sub wal_bytes 0 tail_start in
        let tail = String.sub wal_bytes tail_start (String.length wal_bytes - tail_start) in
        let rng = Rng.create (seed * 7919) in
        for t = 1 to 3 do
          let fault = Sim_file.random_fault rng ~len:(String.length tail) in
          let corrupted = head ^ Sim_file.apply_fault tail fault in
          let expect_applied =
            match fault with Sim_file.Duplicate_tail _ -> last + 1 | _ -> last
          in
          let ctx = Printf.sprintf "seed %d fault %d" seed t in
          incr recoveries;
          let applied =
            match snapshot with
            | None ->
              let log, report = Recovery.recover_bytes corrupted in
              check ~ctx fps.(base + report.Recovery.records_applied) (Lazy_db.of_log log);
              report.Recovery.records_applied
            | Some _ ->
              let db, report = recover_image ~tag:"fault" ~snapshot ~wal_prefix:corrupted in
              check ~ctx fps.(base + report.Recovery.records_applied) db;
              report.Recovery.records_applied
          in
          if applied <> expect_applied then
            failwith
              (Printf.sprintf "%s: recovered to record %d, expected %d (fault %s)" ctx applied
                 expect_applied
                 (match fault with
                 | Sim_file.Truncate_tail k -> Printf.sprintf "truncate %d" k
                 | Sim_file.Bit_flip k -> Printf.sprintf "bitflip %d" k
                 | Sim_file.Duplicate_tail k -> Printf.sprintf "dup %d" k))
        done
      end;
      !recoveries)

let run_one ?checkpoint_at ~seed ~target_ops () =
  let ops = gen_ops ~seed ~target_ops in
  (* Any divergence reports the exact schedule: the seed regenerates
     it, and the printed prefix replays even without the generator. *)
  try run_one_inner ?checkpoint_at ~seed ~ops ()
  with Failure msg ->
    failwith
      (Printf.sprintf "%s\n  replay: seed=%d target_ops=%d schedule=[%s]" msg seed target_ops
         (ops_to_string ops))

let run_matrix ~seeds ~target_ops =
  List.iter
    (fun seed ->
      let checkpoint_at = if seed mod 3 = 0 then Some (target_ops / 2) else None in
      let recoveries = run_one ?checkpoint_at ~seed ~target_ops () in
      Printf.printf "crash matrix seed %d: %d recoveries ok%s\n%!" seed recoveries
        (match checkpoint_at with Some k -> Printf.sprintf " (checkpoint at %d)" k | None -> ""))
    seeds
