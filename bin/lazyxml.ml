(* lazyxml — command-line front end to the lazy XML database.

   The CLI operates on XML document files.  For each command it loads
   the document into the chosen engine (optionally chopped into
   segments to exercise the lazy machinery), performs the operation,
   and for edits writes the document back.

     lazyxml generate --kind xmark --out doc.xml
     lazyxml stats doc.xml --segments 50
     lazyxml query doc.xml --anc person --desc phone --engine ld
     lazyxml insert doc.xml --at 123 --fragment '<x/>'
     lazyxml remove doc.xml --at 123 --len 4
     lazyxml chop doc.xml --segments 20 --shape nested *)

open Cmdliner
open Lazy_xml

let read_file = Lxu_storage.Sim_file.read_file

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let engine_of_string = function
  | "ld" -> Lazy_db.LD
  | "ls" -> Lazy_db.LS
  | s -> failwith (Printf.sprintf "unknown engine %S (expected ld or ls)" s)

let shape_of_string = function
  | "balanced" -> Lxu_workload.Chopper.Balanced
  | "nested" -> Lxu_workload.Chopper.Nested
  | s -> failwith (Printf.sprintf "unknown shape %S (expected balanced or nested)" s)

let load ?(index_attributes = false) ~engine ~segments ~shape path =
  let text = read_file path in
  let db = Lazy_db.create ~engine ~index_attributes () in
  if segments <= 1 then Lazy_db.insert db ~gp:0 text
  else
    List.iter
      (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
      (Lxu_workload.Chopper.chop ~text ~segments shape);
  (db, text)

(* --- common arguments ------------------------------------------------ *)

let doc_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC" ~doc:"XML document file.")

let engine_arg =
  Arg.(value & opt string "ld" & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Index engine: ld (lazy dynamic) or ls (lazy static).")

let segments_arg =
  Arg.(value & opt int 1 & info [ "segments" ] ~docv:"N"
         ~doc:"Chop the document into up to $(docv) segments when loading.")

let shape_arg =
  Arg.(value & opt string "balanced" & info [ "shape" ] ~docv:"SHAPE"
         ~doc:"Chopping shape: balanced or nested.")

let storage_arg =
  Arg.(value & opt string "mem" & info [ "storage" ] ~docv:"KIND"
         ~doc:"SB-tree storage backend: mem (OCaml heap, the default) or paged \
               (page-backed B+-tree, buffer pool bounded by LXU_POOL_BYTES).")

let storage_of_string = function
  | "mem" -> `Mem
  | "paged" -> `Paged
  | s -> failwith (Printf.sprintf "unknown storage %S (expected mem or paged)" s)

(* The index-bytes total and its parts, which add up to it. *)
let print_index_bytes ~indent db =
  let log = Option.get (Lazy_db.log db) in
  Printf.printf "index bytes    %s: %d\n" (String.make indent ' ') (Lazy_db.size_bytes db);
  Printf.printf "  sb-tree         : %d bytes\n" (Lxu_seglog.Update_log.sb_size_bytes log);
  Printf.printf "  tag-list        : %d bytes\n" (Lxu_seglog.Update_log.tag_list_size_bytes log);
  Printf.printf "  element columns : %d bytes\n" (Lxu_seglog.Update_log.columns_size_bytes log)

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Abandon the evaluation after $(docv) milliseconds; exits with \
               status 124 when the deadline trips.")

(* Runs [f] under an optional deadline guard (cooperatively checked by
   the join loops): a trip prints the timeout and exits like
   timeout(1) does. *)
let with_deadline deadline_ms f =
  let guard =
    Option.map
      (fun ms -> Lxu_util.Deadline.guard ~deadline:(Lxu_util.Deadline.after (ms /. 1000.)) ())
      deadline_ms
    |> Option.join
  in
  try f guard
  with Lxu_util.Deadline.Cancel.Cancelled _ ->
    Printf.eprintf "timed out after %.1f ms\n" (Option.get deadline_ms);
    exit 124

(* --- query ------------------------------------------------------------ *)

let query_cmd =
  let anc = Arg.(required & opt (some string) None & info [ "anc" ] ~doc:"Ancestor tag.") in
  let desc = Arg.(required & opt (some string) None & info [ "desc" ] ~doc:"Descendant tag (use @name for attributes with --attributes).") in
  let child = Arg.(value & flag & info [ "child" ] ~doc:"Parent/child axis instead of ancestor//descendant.") in
  let show = Arg.(value & flag & info [ "pairs" ] ~doc:"Print every result pair.") in
  let attrs = Arg.(value & flag & info [ "attributes" ] ~doc:"Index attributes as @name subelements.") in
  let run doc engine segments shape anc desc child show attrs deadline_ms =
    let db, _ =
      load ~engine:(engine_of_string engine) ~index_attributes:attrs ~segments
        ~shape:(shape_of_string shape) doc
    in
    let axis = if child then Lxu_util.Axis.Child else Lxu_util.Axis.Desc in
    let t0 = Unix.gettimeofday () in
    let pairs, stats =
      with_deadline deadline_ms (fun guard -> Lazy_db.query db ~axis ?guard ~anc ~desc ())
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Printf.printf "%s%s%s: %d pairs in %.2f ms (%d cross-segment, %d in-segment, %d segments skipped)\n"
      anc (if child then "/" else "//") desc stats.Lazy_db.pair_count ms
      stats.Lazy_db.cross_pairs stats.Lazy_db.in_pairs stats.Lazy_db.segments_skipped;
    if show then List.iter (fun (a, d) -> Printf.printf "  %d -> %d\n" a d) pairs
  in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a structural join over a document.")
    Term.(const run $ doc_arg $ engine_arg $ segments_arg $ shape_arg $ anc $ desc $ child $ show $ attrs $ deadline_arg)

(* --- stats ------------------------------------------------------------- *)

let stats_cmd =
  let run doc engine segments shape =
    let db, text = load ~engine:(engine_of_string engine) ~segments ~shape:(shape_of_string shape) doc in
    Printf.printf "document bytes : %d\n" (String.length text);
    Printf.printf "elements       : %d\n" (Lazy_db.element_count db);
    Printf.printf "segments       : %d\n" (Lazy_db.segment_count db);
    print_index_bytes ~indent:0 db
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print index statistics for a document.")
    Term.(const run $ doc_arg $ engine_arg $ segments_arg $ shape_arg)

(* --- insert / remove ---------------------------------------------------- *)

(* Parses a batch file: one edit per line, [gp<TAB>path] where [path]
   names a file holding the XML fragment to insert at [gp].  Blank
   lines and [#] comments are skipped. *)
let read_batch_file path =
  let ic = open_in path in
  let edits = ref [] in
  let lineno = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let line = String.trim line in
           if line <> "" && line.[0] <> '#' then
             match String.index_opt line '\t' with
             | None ->
               failwith
                 (Printf.sprintf "%s:%d: expected gp<TAB>fragment-file" path !lineno)
             | Some tab ->
               let gp =
                 match int_of_string_opt (String.trim (String.sub line 0 tab)) with
                 | Some gp -> gp
                 | None ->
                   failwith (Printf.sprintf "%s:%d: malformed byte position" path !lineno)
               in
               let frag_path =
                 String.trim (String.sub line (tab + 1) (String.length line - tab - 1))
               in
               edits := (gp, read_file frag_path) :: !edits
         done
       with End_of_file -> ());
      List.rev !edits)

let insert_cmd =
  let at = Arg.(value & opt (some int) None & info [ "at" ] ~docv:"POS" ~doc:"Byte position.") in
  let frag = Arg.(value & opt (some string) None & info [ "fragment" ] ~doc:"XML fragment to insert.") in
  let batch = Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
                     ~doc:"Apply a batch of inserts through the group-committed write path: \
                           one edit per line in $(docv), formatted as gp<TAB>fragment-file, \
                           positions interpreted after the preceding edits of the batch.") in
  let run doc engine segments shape at frag batch =
    let edits =
      match (batch, at, frag) with
      | Some path, None, None -> read_batch_file path
      | None, Some at, Some frag -> [ (at, frag) ]
      | Some _, _, _ -> failwith "--batch excludes --at/--fragment"
      | None, _, _ -> failwith "need either --batch or both --at and --fragment"
    in
    let db, _ = load ~engine:(engine_of_string engine) ~segments ~shape:(shape_of_string shape) doc in
    let t0 = Unix.gettimeofday () in
    Lazy_db.insert_many db edits;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let bytes = List.fold_left (fun acc (_, f) -> acc + String.length f) 0 edits in
    (match edits with
    | [ (at, frag) ] ->
      Printf.printf "inserted %d bytes at %d in %.3f ms (%d segments, index %d bytes)\n"
        (String.length frag) at ms (Lazy_db.segment_count db) (Lazy_db.size_bytes db)
    | _ ->
      Printf.printf "inserted %d edits (%d bytes) in %.3f ms (%d segments, index %d bytes)\n"
        (List.length edits) bytes ms (Lazy_db.segment_count db) (Lazy_db.size_bytes db));
    write_file doc (Lazy_db.text db)
  in
  Cmd.v (Cmd.info "insert" ~doc:"Insert one fragment — or a batch of them — and write the document back.")
    Term.(const run $ doc_arg $ engine_arg $ segments_arg $ shape_arg $ at $ frag $ batch)

let remove_cmd =
  let at = Arg.(required & opt (some int) None & info [ "at" ] ~docv:"POS" ~doc:"Byte position.") in
  let len = Arg.(required & opt (some int) None & info [ "len" ] ~docv:"LEN" ~doc:"Byte count.") in
  let run doc engine segments shape at len =
    let db, _ = load ~engine:(engine_of_string engine) ~segments ~shape:(shape_of_string shape) doc in
    let t0 = Unix.gettimeofday () in
    Lazy_db.remove db ~gp:at ~len;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Printf.printf "removed %d bytes at %d in %.3f ms (%d segments remain)\n" len at ms
      (Lazy_db.segment_count db);
    write_file doc (Lazy_db.text db)
  in
  Cmd.v (Cmd.info "remove" ~doc:"Remove a byte range and write the document back.")
    Term.(const run $ doc_arg $ engine_arg $ segments_arg $ shape_arg $ at $ len)

(* --- generate ------------------------------------------------------------ *)

let generate_cmd =
  let kind = Arg.(value & opt string "xmark" & info [ "kind" ] ~docv:"KIND"
                    ~doc:"Document kind: xmark, synthetic or chain.") in
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let size = Arg.(value & opt int 1000 & info [ "size" ] ~docv:"N"
                    ~doc:"Persons (xmark), elements (synthetic) or depth (chain).") in
  let run kind out seed size =
    let text =
      match kind with
      | "xmark" -> Lxu_workload.Xmark.generate_text ~persons:size ~seed ()
      | "synthetic" -> Lxu_workload.Generator.generate_text ~seed ~target_elements:size ()
      | "chain" ->
        Lxu_workload.Generator.deep_chain ~tags:[| "a"; "b"; "c" |] ~depth:size ~payload:"x"
      | s -> failwith (Printf.sprintf "unknown kind %S" s)
    in
    write_file out text;
    Printf.printf "wrote %d bytes to %s\n" (String.length text) out
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a test document.")
    Term.(const run $ kind $ out $ seed $ size)

(* --- path ----------------------------------------------------------------- *)

let path_cmd =
  let expr = Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH"
                    ~doc:"Path expression, e.g. //person/profile//interest or //person/@id.") in
  let attrs = Arg.(value & flag & info [ "attributes" ] ~doc:"Index attributes as @name subelements.") in
  let run doc engine segments shape expr attrs deadline_ms =
    let text = read_file doc in
    let db = Lazy_db.create ~engine:(engine_of_string engine) ~index_attributes:attrs () in
    if segments <= 1 then Lazy_db.insert db ~gp:0 text
    else
      List.iter
        (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
        (Lxu_workload.Chopper.chop ~text ~segments (shape_of_string shape));
    let t0 = Unix.gettimeofday () in
    let matches =
      with_deadline deadline_ms (fun guard -> Path_query.eval_string ?guard db expr)
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Printf.printf "%s: %d matches in %.2f ms
" expr (List.length matches) ms;
    List.iter (fun (s, e) -> Printf.printf "  [%d, %d)
" s e) matches
  in
  Cmd.v (Cmd.info "path" ~doc:"Evaluate a path expression over a document.")
    Term.(const run $ doc_arg $ engine_arg $ segments_arg $ shape_arg $ expr $ attrs $ deadline_arg)

(* --- explain --------------------------------------------------------------- *)

let explain_cmd =
  let expr = Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH"
                    ~doc:"Path expression, e.g. //person/profile//interest.") in
  let attrs = Arg.(value & flag & info [ "attributes" ] ~doc:"Index attributes as @name subelements.") in
  let run doc engine segments shape expr attrs deadline_ms =
    let text = read_file doc in
    let db = Lazy_db.create ~engine:(engine_of_string engine) ~index_attributes:attrs () in
    if segments <= 1 then Lazy_db.insert db ~gp:0 text
    else
      List.iter
        (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
        (Lxu_workload.Chopper.chop ~text ~segments (shape_of_string shape));
    let steps = Path_query.parse_exn expr in
    let t0 = Unix.gettimeofday () in
    let plan, matches =
      with_deadline deadline_ms (fun guard -> Path_query.explain ?guard db steps)
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    print_string plan;
    if plan <> "" && plan.[String.length plan - 1] <> '\n' then print_newline ();
    Printf.printf "%s: %d matches in %.2f ms\n" expr (List.length matches) ms
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run a path expression and show how: each predicate and each spine step \
             that ends a semi-join hop, with its slot-restricted candidates and its \
             survivors.  A predicate-free path is one hop and runs no join.")
    Term.(const run $ doc_arg $ engine_arg $ segments_arg $ shape_arg $ expr $ attrs $ deadline_arg)

(* --- snapshots -------------------------------------------------------------- *)

let save_cmd =
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Snapshot file.") in
  let run doc engine segments shape out =
    let db, _ = load ~engine:(engine_of_string engine) ~segments ~shape:(shape_of_string shape) doc in
    Lazy_db.save db out;
    Printf.printf "saved %d segments (%d elements) to %s
"
      (Lazy_db.segment_count db) (Lazy_db.element_count db) out
  in
  Cmd.v (Cmd.info "save" ~doc:"Load a document and write an index snapshot.")
    Term.(const run $ doc_arg $ engine_arg $ segments_arg $ shape_arg $ out)

let restore_cmd =
  let snap = Arg.(required & pos 0 (some file) None & info [] ~docv:"SNAPSHOT"
                    ~doc:"Snapshot file, or a WAL durability directory for point-in-time restore.") in
  let lsn = Arg.(value & opt (some int) None & info [ "lsn" ] ~docv:"N"
                   ~doc:"Point-in-time bound: rebuild the state as of committed LSN $(docv) \
                         (requires a WAL directory; default: everything committed).") in
  let out = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
                   ~doc:"Also write the restored document text to $(docv).") in
  let run snap lsn out =
    let db =
      if Sys.is_directory snap then begin
        let lsn = Option.value lsn ~default:max_int in
        let db, report = Lazy_db.restore_to ~lsn snap in
        Printf.printf "restored %s as of lsn %d: %d wal record(s) replayed, %d skipped\n" snap
          report.Lxu_storage.Recovery.last_lsn report.Lxu_storage.Recovery.records_applied
          report.Lxu_storage.Recovery.records_skipped;
        db
      end
      else begin
        (match lsn with
        | Some _ -> failwith "--lsn needs a WAL directory, not an index snapshot file"
        | None -> ());
        Lazy_db.load snap
      end
    in
    Printf.printf "restored %d segments, %d elements, %d bytes of document\n"
      (Lazy_db.segment_count db) (Lazy_db.element_count db) (Lazy_db.doc_length db);
    match out with
    | None -> ()
    | Some path ->
      write_file path (Lazy_db.text db);
      Printf.printf "wrote %d bytes to %s\n" (Lazy_db.doc_length db) path
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:"Restore an index snapshot, or a WAL directory as of a chosen LSN (--lsn).")
    Term.(const run $ snap $ lsn $ out)

(* --- durability: checkpoint / recover ------------------------------------ *)

let print_report dir (r : Lxu_storage.Recovery.report) =
  Printf.printf "recovered %s: snapshot lsn %d, %d wal record(s) replayed, %d skipped\n" dir
    r.Lxu_storage.Recovery.snapshot_lsn r.Lxu_storage.Recovery.records_applied
    r.Lxu_storage.Recovery.records_skipped;
  match r.Lxu_storage.Recovery.corruption with
  | None -> ()
  | Some why ->
    Printf.printf "  truncated %d corrupt byte(s): %s\n"
      (r.Lxu_storage.Recovery.total_bytes - r.Lxu_storage.Recovery.valid_bytes) why

let checkpoint_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"WAL durability directory.") in
  let from = Arg.(value & opt (some file) None & info [ "from" ] ~docv:"DOC"
                    ~doc:"Initialise $(i,DIR) fresh from this XML document before checkpointing \
                          (otherwise $(i,DIR) is recovered first).") in
  let run dir engine segments shape from storage =
    let storage = storage_of_string storage in
    let db =
      match from with
      | Some doc ->
        let text = read_file doc in
        let db =
          Lazy_db.create ~engine:(engine_of_string engine) ~durability:(`Wal dir) ~storage ()
        in
        if segments <= 1 then Lazy_db.insert db ~gp:0 text
        else
          List.iter
            (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
            (Lxu_workload.Chopper.chop ~text ~segments (shape_of_string shape));
        db
      | None ->
        let db, report = Lazy_db.recover ~storage dir in
        print_report dir report;
        db
    in
    Lazy_db.checkpoint db;
    Lazy_db.close db;
    Printf.printf "checkpointed %d segment(s), %d element(s), %d byte(s) into %s\n"
      (Lazy_db.segment_count db) (Lazy_db.element_count db) (Lazy_db.doc_length db) dir
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Snapshot a WAL directory's database and rotate its log to empty.")
    Term.(const run $ dir $ engine_arg $ segments_arg $ shape_arg $ from $ storage_arg)

let recover_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"WAL durability directory.") in
  let out = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
                   ~doc:"Also write the recovered document text to $(docv).") in
  let run dir out storage =
    let db, report = Lazy_db.recover ~storage:(storage_of_string storage) dir in
    print_report dir report;
    Printf.printf "state: %d segment(s), %d element(s), %d byte(s) of document\n"
      (Lazy_db.segment_count db) (Lazy_db.element_count db) (Lazy_db.doc_length db);
    (match out with
    | None -> ()
    | Some path ->
      write_file path (Lazy_db.text db);
      Printf.printf "wrote %d bytes to %s\n" (Lazy_db.doc_length db) path);
    Lazy_db.close db
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover a database from snapshot + WAL, repairing a torn or corrupt tail.")
    Term.(const run $ dir $ out $ storage_arg)

(* --- info ------------------------------------------------------------------ *)

let info_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"WAL durability directory.") in
  let paths = Arg.(value & opt int 0 & info [ "paths" ] ~docv:"N"
                     ~doc:"Also list the $(docv) heaviest root-to-element paths of the \
                           synopsis.") in
  let run dir storage paths =
    let db, report = Lazy_db.recover ~storage:(storage_of_string storage) dir in
    print_report dir report;
    Printf.printf "document bytes  : %d\n" (Lazy_db.doc_length db);
    Printf.printf "elements        : %d\n" (Lazy_db.element_count db);
    Printf.printf "segments        : %d\n" (Lazy_db.segment_count db);
    print_index_bytes ~indent:1 db;
    (match Lazy_db.wal_bytes db with
    | Some b -> Printf.printf "wal bytes       : %d\n" b
    | None -> ());
    Printf.printf "storage         : %s\n"
      (match Lazy_db.storage_kind db with `Mem -> "mem" | `Paged -> "paged");
    (match Lazy_db.page_stats db with
    | None -> ()
    | Some s ->
      let p = s.Lxu_storage.Page_store.pool in
      Printf.printf "page store      : %d pages x %d bytes (gen %d, checkpoint lsn %d)\n"
        s.Lxu_storage.Page_store.pages s.Lxu_storage.Page_store.page_size
        s.Lxu_storage.Page_store.generation s.Lxu_storage.Page_store.ckpt_lsn;
      Printf.printf "  free lists    : %d reusable, %d pending, %d fresh this epoch\n"
        s.Lxu_storage.Page_store.reusable_pages s.Lxu_storage.Page_store.pending_pages
        s.Lxu_storage.Page_store.fresh_pages;
      Printf.printf "  page traffic  : %d alloc(s), %d free(s), %d cow(s)\n"
        s.Lxu_storage.Page_store.allocs s.Lxu_storage.Page_store.frees
        s.Lxu_storage.Page_store.cows;
      Printf.printf "  buffer pool   : %d/%d bytes, %d frame(s) (%d dirty, %d pinned)\n"
        p.Lxu_storage.Buffer_pool.bytes p.Lxu_storage.Buffer_pool.max_bytes
        p.Lxu_storage.Buffer_pool.frames p.Lxu_storage.Buffer_pool.dirty_frames
        p.Lxu_storage.Buffer_pool.pinned_frames;
      Printf.printf "  pool traffic  : %d lookup(s), %d hit(s), %d miss(es), %d eviction(s), \
                     %d writeback(s), %d overrun(s)\n"
        p.Lxu_storage.Buffer_pool.lookups p.Lxu_storage.Buffer_pool.hits
        p.Lxu_storage.Buffer_pool.misses p.Lxu_storage.Buffer_pool.evictions
        p.Lxu_storage.Buffer_pool.writebacks p.Lxu_storage.Buffer_pool.overruns);
    let log = Option.get (Lazy_db.log db) in
    let f = Lxu_seglog.Update_log.frag_stats log in
    Printf.printf "fragmentation   : %d live / %d dead segment(s), er depth %d, %d dirty \
                   tag(s), widest tag %d segment(s)\n"
      f.Lxu_seglog.Update_log.live_segments f.Lxu_seglog.Update_log.dead_segments
      f.Lxu_seglog.Update_log.er_depth f.Lxu_seglog.Update_log.dirty_tags
      f.Lxu_seglog.Update_log.max_tag_segments;
    let syn = Lxu_seglog.Update_log.synopsis log in
    Printf.printf "synopsis        : %d distinct path(s), %d element(s), %d bytes\n"
      (Lxu_seglog.Path_synopsis.distinct_paths syn)
      (Lxu_seglog.Path_synopsis.elements syn)
      (Lxu_seglog.Path_synopsis.size_bytes syn);
    if paths > 0 then begin
      let reg = Lxu_seglog.Update_log.registry log in
      let all = Lxu_seglog.Path_synopsis.to_sorted_list syn in
      let heaviest = List.sort (fun (_, a) (_, b) -> compare b a) all in
      List.iteri
        (fun i (path, n) ->
          if i < paths then
            Printf.printf "  %8d  /%s\n" n
              (String.concat "/"
                 (List.map (Lxu_seglog.Tag_registry.name reg) path)))
        heaviest
    end;
    Lazy_db.close db
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Print store statistics for a WAL directory: pages, buffer pool, WAL size, \
             fragmentation and path-synopsis summary.")
    Term.(const run $ dir $ storage_arg $ paths)

(* --- maintenance: compact / backup ---------------------------------------- *)

let compact_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"WAL durability directory.") in
  let pack_segments = Arg.(value & opt int 8 & info [ "pack-segments" ] ~docv:"N"
                             ~doc:"Pack subtrees holding more than $(docv) live segments.") in
  let pack_depth = Arg.(value & opt int 4 & info [ "pack-depth" ] ~docv:"N"
                          ~doc:"Pack subtrees with ER chains at least $(docv) deep.") in
  let run dir pack_segments pack_depth =
    let db, report = Lazy_db.recover dir in
    print_report dir report;
    let before = Lazy_db.segment_count db in
    let cfg =
      { Maintainer.default_config with
        pack_min_segments = pack_segments; pack_min_depth = pack_depth }
    in
    let m = Maintainer.of_db ~config:cfg db in
    let jobs = Maintainer.run_until_idle m in
    (* Truncate the WAL regardless of size: a compacted store should
       restart from its snapshot, not replay history. *)
    Lazy_db.checkpoint db;
    Lazy_db.close db;
    Printf.printf "compacted %s: %d maintenance job(s), %d -> %d segment(s), wal truncated\n"
      dir jobs before (Lazy_db.segment_count db)
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Pay down a WAL directory's maintenance debt: pack fragmented subtrees, merge \
             tag lists, checkpoint and truncate the log.")
    Term.(const run $ dir $ pack_segments $ pack_depth)

let backup_cmd =
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"Live WAL durability directory.") in
  let dst = Arg.(required & pos 1 (some string) None & info [] ~docv:"DEST"
                   ~doc:"Backup target directory (created if missing).") in
  let run src dst =
    let db, report = Lazy_db.recover src in
    print_report src report;
    let lsn = Lazy_db.backup db ~dir:dst in
    Lazy_db.close db;
    Printf.printf "backed up %s through lsn %d into %s (restore any committed prefix with \
                   'lazyxml restore %s --lsn N')\n"
      src lsn dst dst
  in
  Cmd.v
    (Cmd.info "backup"
       ~doc:"Ship a WAL directory's snapshot + log to a backup directory, atomically.")
    Term.(const run $ src $ dst)

(* --- chop ----------------------------------------------------------------- *)

let chop_cmd =
  let run doc segments shape =
    let text = read_file doc in
    let edits = Lxu_workload.Chopper.chop ~text ~segments (shape_of_string shape) in
    Printf.printf "%d segments:\n" (List.length edits);
    List.iter
      (fun (gp, frag) -> Printf.printf "  insert %6d bytes at %d\n" (String.length frag) gp)
      edits
  in
  Cmd.v (Cmd.info "chop" ~doc:"Show the segment insertion schedule for a document.")
    Term.(const run $ doc_arg $ segments_arg $ shape_arg)

let () =
  let info =
    Cmd.info "lazyxml" ~version:"1.0.0"
      ~doc:"Lazy XML updates and segment-aware structural joins (SIGMOD 2005 reproduction)."
  in
  (* [Failure] is the commands' user-error channel (bad --lsn bound,
     malformed batch file, ...): report it as a message, not a crash. *)
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [ query_cmd; stats_cmd; insert_cmd; remove_cmd; generate_cmd; chop_cmd; path_cmd;
           explain_cmd; save_cmd; restore_cmd; checkpoint_cmd; recover_cmd; info_cmd;
           compact_cmd; backup_cmd ])
  with
  | code -> exit code
  | exception Failure msg ->
    Printf.eprintf "lazyxml: %s\n" msg;
    exit 1
