open Lazy_xml
module Rng = Lxu_workload.Rng
module Wal = Lxu_storage.Wal
module Wal_store = Lxu_storage.Wal_store
module Sim_file = Lxu_storage.Sim_file
module Recovery = Lxu_storage.Recovery
module Text_model = Lxu_props.Text_model

let vocabulary = [| "a"; "b"; "c"; "d" |]

let fragments =
  [|
    "<a/>";
    "<b>t</b>";
    "<c><a/><b/></c>";
    "<d k=\"v\"><b/></d>";
    "<a><d k=\"w\">x</d></a>";
  |]

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
      (* Highest point first: the order the schedules were first
         drawn in. *)
      match List.rev (Text_model.valid_insert_points !text frag) with
      | [] -> ()
      | ps ->
        let gp = List.nth ps (Rng.int rng (List.length ps)) in
        emit (Wal.Insert { gp; text = frag });
        text := Text_model.splice !text ~gp frag
    end
    else begin
      match Text_model.element_extents !text with
      | [] -> ()
      | extents ->
        let s, e = List.nth extents (Rng.int rng (List.length extents)) in
        if roll < 80 then begin
          emit (Wal.Remove { gp = s; len = e - s });
          text := Text_model.cut !text ~gp:s ~len:(e - s)
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

let check ~ctx expected db =
  let got = fingerprint db in
  if got <> expected then
    failwith
      (Printf.sprintf "%s: recovered state diverges\n  expected %S\n  got      %S" ctx expected got)

let engine_name = function Lazy_db.LD -> "LD" | Lazy_db.LS -> "LS"

let with_replay ~seed ~target_ops ?(params = "") schedule f =
  try f ()
  with Failure msg ->
    failwith
      (Printf.sprintf "%s\n  replay: seed=%d target_ops=%d%s schedule=[%s]" msg seed target_ops
         params
         (ops_to_string (schedule ())))

(* --- the reference replay --------------------------------------------- *)

module Reference = struct
  type t = {
    db : Lazy_db.t;
    fingerprint : Lazy_db.t -> string;
    mutable fps : string array;  (* fps.(k) = state at LSN k, k <= lsn *)
    mutable lsn : int;
  }

  let record t =
    if t.lsn = Array.length t.fps then begin
      let grown = Array.make (2 * t.lsn) "" in
      Array.blit t.fps 0 grown 0 t.lsn;
      t.fps <- grown
    end;
    t.fps.(t.lsn) <- t.fingerprint t.db

  let create ?engine ?(fingerprint = fingerprint ~segments:true) () =
    let t =
      {
        db = Lazy_db.create ?engine ~index_attributes:true ();
        fingerprint;
        fps = Array.make 64 "";
        lsn = 0;
      }
    in
    record t;
    t

  let apply t op =
    apply t.db op;
    t.lsn <- t.lsn + 1;
    record t

  let mirror t = function
    | Maintainer.Pack { gp; len; _ } -> apply t (Wal.Pack { gp; len })
    | _ -> ()

  let of_ops ?engine ops =
    let t = create ?engine () in
    List.iter (apply t) ops;
    t

  let lsn t = t.lsn

  let at t k =
    if k < 0 || k > t.lsn then
      failwith (Printf.sprintf "no reference state at lsn %d (last %d)" k t.lsn);
    t.fps.(k)

  let check t ~ctx k db =
    let expected = try at t k with Failure msg -> failwith (ctx ^ ": " ^ msg) in
    if Lazy_db.engine db <> Lazy_db.engine t.db then
      failwith
        (Printf.sprintf "%s: the store is %s, the reference %s" ctx
           (engine_name (Lazy_db.engine db)) (engine_name (Lazy_db.engine t.db)));
    let got = t.fingerprint db in
    if got <> expected then
      failwith
        (Printf.sprintf "%s: state diverges from the reference at lsn %d\n  expected %S\n  got      %S"
           ctx k expected got)
end

(* --- filesystem helpers ---------------------------------------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lazyxml_crash_%d_%s_%d" (Unix.getpid ()) tag !counter)

(* Never follows a symbolic link: tests plant links to /dev/full. *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let with_dir tag f =
  let dir = fresh_dir tag in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_fresh_tmpdir f =
  let tmp = Filename.temp_dir "lazyxml_run_" "" in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  let finished = ref false in
  (* Removes [tmp] once, returning what the run left in it. *)
  let finish () =
    if !finished then []
    else begin
      finished := true;
      Filename.set_temp_dir_name saved;
      let left = List.sort compare (Array.to_list (Sys.readdir tmp)) in
      rm_rf tmp;
      left
    end
  in
  let report left =
    Printf.sprintf "the run left %s in its temp directory" (String.concat ", " left)
  in
  (* A runner may call [exit] itself (Alcotest does for a filtered
     run); the check then runs at exit. *)
  at_exit (fun () ->
      match finish () with
      | [] -> ()
      | left ->
        prerr_endline (report left);
        exit 1);
  match f () with
  | v -> ( match finish () with [] -> v | left -> failwith (report left))
  | exception e ->
    ignore (finish ());
    raise e

let read_file = Sim_file.read_file

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- the crash-image layer -------------------------------------------- *)

(* Recovers a crash image — byte-for-byte copies of the WAL and, when
   the workload checkpointed, the snapshot — through the real
   directory path, and returns the database plus report. *)
let recover_image ~tag ?snapshot_bytes ~wal_bytes () =
  with_dir tag (fun dir ->
      Option.iter (write_file (Wal_store.snapshot_path dir)) snapshot_bytes;
      write_file (Wal_store.wal_path dir) wal_bytes;
      let db, report = Lazy_db.recover dir in
      Lazy_db.close db;
      (db, report))

(* The WAL cut points: after the header, and after each record. *)
let boundaries wal_bytes =
  Array.of_list
    (Wal.header_bytes :: List.map (fun r -> r.Wal.end_off) (Wal.scan wal_bytes).Wal.records)

let sweep_boundaries ~ctx ~reference ?(base = 0) ?snapshot_bytes ~wal_bytes () =
  Option.iter
    (fun why -> failwith (Printf.sprintf "%s: clean WAL scans dirty: %s" ctx why))
    (Wal.scan wal_bytes).Wal.corruption;
  let offs = boundaries wal_bytes in
  let records = Array.length offs - 1 in
  if records <> Reference.lsn reference - base then
    failwith
      (Printf.sprintf "%s: %d WAL records for %d operations after lsn %d" ctx records
         (Reference.lsn reference - base) base);
  Array.iteri
    (fun j off ->
      let ctx = Printf.sprintf "%s boundary %d/%d" ctx j records in
      let db, report =
        recover_image ~tag:"boundary" ?snapshot_bytes ~wal_bytes:(String.sub wal_bytes 0 off) ()
      in
      if report.Recovery.corruption <> None then failwith (ctx ^ ": clean prefix reported corrupt");
      if report.Recovery.records_applied <> j then
        failwith
          (Printf.sprintf "%s: applied %d of %d records" ctx report.Recovery.records_applied j);
      Reference.check reference ~ctx (base + j) db)
    offs;
  records + 1

let check_tail_fault ~ctx ~reference ?snapshot_bytes ~head ~tail fault =
  let db, report =
    recover_image ~tag:"fault" ?snapshot_bytes ~wal_bytes:(head ^ Sim_file.apply_fault tail fault) ()
  in
  Reference.check reference ~ctx report.Recovery.last_lsn db;
  report.Recovery.last_lsn

(* --- the crash matrix ------------------------------------------------- *)

let refused ~ctx what f =
  match f () with
  | () -> failwith (Printf.sprintf "%s: a failed handle accepted %s" ctx what)
  | exception Failure _ -> ()

(* The WAL refuses the write of op [f] as a full disk would: the op
   raises, the handle is failed with its epoch unmoved and refuses
   every later write, checkpoint and backup, and [close] drops the
   refused group — so recovery lands exactly on the state after the
   first [f] ops, at LSN [f]. *)
let check_wal_failure ?engine ?checkpoint_at ~seed ~ops ~reference f =
  let ctx = Printf.sprintf "seed %d wal failure at op %d" seed f in
  with_dir "walfail" (fun dir ->
      let db = Lazy_db.create ?engine ~index_attributes:true ~durability:(`Wal dir) () in
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
      Reference.check reference ~ctx f db')

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

let fault_to_string = function
  | Sim_file.Truncate_tail k -> Printf.sprintf "truncate %d" k
  | Sim_file.Bit_flip k -> Printf.sprintf "bitflip %d" k
  | Sim_file.Duplicate_tail k -> Printf.sprintf "dup %d" k

let run_one_inner ?engine ?checkpoint_at ~wal_fail_every ~seed ~ops () =
  let n = List.length ops in
  let checkpoint_at =
    match checkpoint_at with Some k when k >= n -> None | other -> other
  in
  let reference = Reference.create ?engine () in
  with_dir "wal" (fun dir ->
      let durable = Lazy_db.create ?engine ~index_attributes:true ~durability:(`Wal dir) () in
      List.iteri
        (fun i op ->
          apply durable op;
          if checkpoint_at = Some (i + 1) then begin
            Lazy_db.checkpoint durable;
            check_resave
              ~ctx:(Printf.sprintf "seed %d checkpoint" seed)
              (Wal_store.snapshot_path dir)
          end;
          Reference.apply reference op)
        ops;
      Lazy_db.close durable;
      let wal_bytes = read_file (Wal_store.wal_path dir) in
      let snapshot_bytes =
        Option.map (fun _ -> read_file (Wal_store.snapshot_path dir)) checkpoint_at
      in
      let base = Option.value checkpoint_at ~default:0 in
      (* Crash at every record boundary. *)
      let recoveries =
        ref
          (sweep_boundaries ~ctx:(Printf.sprintf "seed %d" seed) ~reference ~base ?snapshot_bytes
             ~wal_bytes ())
      in
      (* Torn / corrupt / duplicated tails: the damaged last record
         must cost exactly itself. *)
      let last = n - base - 1 in
      if last >= 0 then begin
        let tail_start = (boundaries wal_bytes).(last) in
        let head = String.sub wal_bytes 0 tail_start in
        let tail = String.sub wal_bytes tail_start (String.length wal_bytes - tail_start) in
        let rng = Rng.create (seed * 7919) in
        for t = 1 to 3 do
          let fault = Sim_file.random_fault rng ~len:(String.length tail) in
          let expected =
            base + match fault with Sim_file.Duplicate_tail _ -> last + 1 | _ -> last
          in
          let ctx = Printf.sprintf "seed %d fault %d" seed t in
          incr recoveries;
          let lsn = check_tail_fault ~ctx ~reference ?snapshot_bytes ~head ~tail fault in
          if lsn <> expected then
            failwith
              (Printf.sprintf "%s: recovered to lsn %d, expected %d (fault %s)" ctx lsn expected
                 (fault_to_string fault))
        done
      end;
      (* A WAL write refused at every [wal_fail_every]-th op. *)
      for f = 0 to n - 1 do
        if f mod wal_fail_every = 0 then begin
          incr recoveries;
          check_wal_failure ?engine ?checkpoint_at ~seed ~ops ~reference f
        end
      done;
      !recoveries)

let run_one ?engine ?checkpoint_at ~wal_fail_every ~seed ~target_ops () =
  let ops = gen_ops ~seed ~target_ops in
  (* Any divergence reports the exact schedule: the seed regenerates
     it, and the printed prefix replays even without the generator. *)
  with_replay ~seed ~target_ops
    ~params:(Printf.sprintf " engine=%s" (engine_name (Option.value engine ~default:Lazy_db.LD)))
    (fun () -> ops)
    (run_one_inner ?engine ?checkpoint_at ~wal_fail_every ~seed ~ops)

let run_matrix ?(engine = Lazy_db.LD) ~seeds ~target_ops ~wal_fail_every () =
  List.iter
    (fun seed ->
      let checkpoint_at = if seed mod 3 = 0 then Some (target_ops / 2) else None in
      let recoveries = run_one ~engine ?checkpoint_at ~wal_fail_every ~seed ~target_ops () in
      Printf.printf "crash matrix %s seed %d: %d recoveries ok%s\n%!" (engine_name engine) seed
        recoveries
        (match checkpoint_at with Some k -> Printf.sprintf " (checkpoint at %d)" k | None -> ""))
    seeds
