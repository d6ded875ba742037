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

let fingerprint ?(segments = true) db =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Lazy_db.text db);
  Buffer.add_string buf (Printf.sprintf "|elems=%d" (Lazy_db.element_count db));
  if segments then Buffer.add_string buf (Printf.sprintf "|segs=%d" (Lazy_db.segment_count db));
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

let with_dir tag f =
  let dir = fresh_dir tag in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file = Sim_file.read_file

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- the differential ------------------------------------------------- *)

let check ~ctx expected db =
  let got = fingerprint db in
  if got <> expected then
    failwith
      (Printf.sprintf "%s: recovered state diverges\n  expected %S\n  got      %S" ctx expected got)

(* Recovers a crash image — byte-for-byte copies of the WAL and, when
   the workload checkpointed, the snapshot — through the real
   directory path, and returns the database plus report. *)
let recover_image ~tag ?snapshot_bytes ~wal_bytes () =
  with_dir tag (fun dir ->
      Option.iter (write_file (Lxu_storage.Wal_store.snapshot_path dir)) snapshot_bytes;
      write_file (Lxu_storage.Wal_store.wal_path dir) wal_bytes;
      let db, report = Lazy_db.recover dir in
      Lazy_db.close db;
      (db, report))

let refused ~ctx what f =
  match f () with
  | () -> failwith (Printf.sprintf "%s: a failed handle accepted %s" ctx what)
  | exception Failure _ -> ()

(* The WAL refuses the write of op [f] as a full disk would: the op
   raises, the handle is failed with its epoch unmoved and refuses
   every later write, checkpoint and backup, and [close] drops the
   refused group — so recovery lands exactly on the state after the
   first [f] ops, at LSN [f]. *)
let check_wal_failure ?checkpoint_at ~seed ~ops ~fps f =
  let ctx = Printf.sprintf "seed %d wal failure at op %d" seed f in
  with_dir "walfail" (fun dir ->
      let db = Lazy_db.create ~index_attributes:true ~durability:(`Wal dir) () in
      List.iteri
        (fun i op ->
          if i < f then begin
            apply db op;
            if checkpoint_at = Some (i + 1) then Lazy_db.checkpoint db
          end)
        ops;
      let device = Option.get (Lazy_db.wal_device db) in
      Sim_file.fail_write device ~nth_write:(Sim_file.writes device);
      let epoch = Lazy_db.epoch db in
      (match apply db (List.nth ops f) with
      | () -> failwith (ctx ^ ": the refused WAL write went unnoticed")
      | exception Sys_error _ -> ());
      if not (Lazy_db.wal_failed db) then failwith (ctx ^ ": handle not failed");
      if Lazy_db.epoch db <> epoch then failwith (ctx ^ ": epoch advanced");
      refused ~ctx "an insert" (fun () -> Lazy_db.insert db ~gp:0 "<a/>");
      refused ~ctx "a checkpoint" (fun () -> Lazy_db.checkpoint db);
      refused ~ctx "a backup" (fun () -> ignore (Lazy_db.backup db ~dir:(dir ^ "_bak")));
      Lazy_db.close db;
      let db', report = Lazy_db.recover dir in
      Lazy_db.close db';
      if report.Recovery.last_lsn <> f then
        failwith (Printf.sprintf "%s: recovered to lsn %d" ctx report.Recovery.last_lsn);
      check ~ctx fps.(f) db')

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

let run_one_inner ?checkpoint_at ~wal_fail_every ~seed ~ops () =
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
      let snapshot_bytes =
        match checkpoint_at with
        | Some _ -> Some (read_file (Lxu_storage.Wal_store.snapshot_path dir))
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
        match snapshot_bytes with
        | None ->
          let log, report = Recovery.recover_bytes prefix in
          if report.Recovery.corruption <> None then
            failwith (ctx ^ ": clean prefix reported corrupt");
          if report.Recovery.records_applied <> j then
            failwith
              (Printf.sprintf "%s: applied %d of %d records" ctx report.Recovery.records_applied j);
          check ~ctx fps.(base + j) (Lazy_db.of_log log)
        | Some _ ->
          let db, report = recover_image ~tag:"boundary" ?snapshot_bytes ~wal_bytes:prefix () in
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
            match snapshot_bytes with
            | None ->
              let log, report = Recovery.recover_bytes corrupted in
              check ~ctx fps.(base + report.Recovery.records_applied) (Lazy_db.of_log log);
              report.Recovery.records_applied
            | Some _ ->
              let db, report =
                recover_image ~tag:"fault" ?snapshot_bytes ~wal_bytes:corrupted ()
              in
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
      (* A WAL write refused at every [wal_fail_every]-th op. *)
      for f = 0 to n - 1 do
        if f mod wal_fail_every = 0 then begin
          incr recoveries;
          check_wal_failure ?checkpoint_at ~seed ~ops ~fps f
        end
      done;
      !recoveries)

let run_one ?checkpoint_at ~wal_fail_every ~seed ~target_ops () =
  let ops = gen_ops ~seed ~target_ops in
  (* Any divergence reports the exact schedule: the seed regenerates
     it, and the printed prefix replays even without the generator. *)
  try run_one_inner ?checkpoint_at ~wal_fail_every ~seed ~ops ()
  with Failure msg ->
    failwith
      (Printf.sprintf "%s\n  replay: seed=%d target_ops=%d schedule=[%s]" msg seed target_ops
         (ops_to_string ops))

let run_matrix ~seeds ~target_ops ~wal_fail_every =
  List.iter
    (fun seed ->
      let checkpoint_at = if seed mod 3 = 0 then Some (target_ops / 2) else None in
      let recoveries = run_one ?checkpoint_at ~wal_fail_every ~seed ~target_ops () in
      Printf.printf "crash matrix seed %d: %d recoveries ok%s\n%!" seed recoveries
        (match checkpoint_at with Some k -> Printf.sprintf " (checkpoint at %d)" k | None -> ""))
    seeds
