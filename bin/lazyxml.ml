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

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Writes [text] to [path] and says so. *)
let write_doc path text =
  write_file path text;
  Printf.printf "wrote %d bytes to %s\n" (String.length text) path

(* --- exit codes ------------------------------------------------------- *)

let exits =
  [ Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1 ~doc:"when a command fails: a bad value, a malformed batch or snapshot file, \
                          a WAL directory with nothing to recover.";
    Cmd.Exit.info 2 ~doc:"on a command-line usage error.";
    Cmd.Exit.info 124 ~doc:"when $(b,--deadline-ms) trips.";
    Cmd.Exit.info 125 ~doc:"on an internal error." ]

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term

(* --- common arguments ------------------------------------------------ *)

(* A string option converted by [conv]; a [Failure] from [conv] is a
   user error (exit 1), like every other bad value a command meets. *)
let converted ~default names ~docv ~doc conv =
  Term.(const conv $ Arg.(value & opt string default & info names ~docv ~doc))

let doc_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC" ~doc:"XML document file.")

let shape_arg =
  converted ~default:"balanced" [ "shape" ] ~docv:"SHAPE" ~doc:"Chopping shape: balanced or nested."
    (function
      | "balanced" -> Lxu_workload.Chopper.Balanced
      | "nested" -> Lxu_workload.Chopper.Nested
      | s -> failwith (Printf.sprintf "unknown shape %S (expected balanced or nested)" s))

let segments_arg =
  Arg.(value & opt int 1 & info [ "segments" ] ~docv:"N"
         ~doc:"Chop the document into up to $(docv) segments when loading.")

let storage_arg =
  converted ~default:"mem" [ "storage" ] ~docv:"KIND"
    ~doc:"SB-tree storage backend: mem (OCaml heap, the default) or paged \
          (page-backed B+-tree, buffer pool bounded by LXU_POOL_BYTES)."
    (function
      | "mem" -> `Mem
      | "paged" -> `Paged
      | s -> failwith (Printf.sprintf "unknown storage %S (expected mem or paged)" s))

(* --engine, --segments and --shape: how a document is loaded.  The
   result loads a document file into a fresh database, chopped into up
   to N segments inserted one by one. *)
let loader =
  let engine =
    converted ~default:"ld" [ "engine" ] ~docv:"ENGINE"
      ~doc:"Index engine: ld (lazy dynamic) or ls (lazy static)."
      (function
        | "ld" -> Lazy_db.LD
        | "ls" -> Lazy_db.LS
        | s -> failwith (Printf.sprintf "unknown engine %S (expected ld or ls)" s))
  in
  let load engine segments shape ~durability ~storage ~index_attributes path =
    let text = read_file path in
    let db = Lazy_db.create ~engine ~index_attributes ~durability ~storage () in
    if segments <= 1 then Lazy_db.insert db ~gp:0 text
    else
      List.iter
        (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
        (Lxu_workload.Chopper.chop ~text ~segments shape);
    db
  in
  Term.(const load $ engine $ segments_arg $ shape_arg)

(* DOC loaded by {!loader} in memory; [attributes] adds --attributes. *)
let document ?(attributes = false) () =
  let attrs =
    if attributes then
      Arg.(value & flag & info [ "attributes" ] ~doc:"Index attributes as @name subelements.")
    else Term.const false
  in
  Term.(
    const (fun load index_attributes doc ->
        load ~durability:`None ~storage:`Mem ~index_attributes doc)
    $ loader $ attrs $ doc_arg)

(* A store's state — segments, elements, document bytes — handed to
   [pr], a printf of those three counts. *)
let print_state pr db =
  pr (Lazy_db.segment_count db) (Lazy_db.element_count db) (Lazy_db.doc_length db)

(* The store's sizes, [indent] more spaces before the colons; the
   index bytes are followed by their parts, which add up to them. *)
let print_sizes ~indent db =
  let log = Option.get (Lazy_db.log db) in
  let size name n = Printf.printf "%-15s%s: %d\n" name (String.make indent ' ') n in
  size "document bytes" (Lazy_db.doc_length db);
  size "elements" (Lazy_db.element_count db);
  size "segments" (Lazy_db.segment_count db);
  size "index bytes" (Lazy_db.size_bytes db);
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
  let run db anc desc child show deadline_ms =
    let axis = if child then Lxu_util.Axis.Child else Lxu_util.Axis.Desc in
    let t0 = Unix.gettimeofday () in
    let pairs, stats =
      with_deadline deadline_ms (fun guard -> Lazy_db.query db ~axis ?guard ~anc ~desc ())
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let { Lxu_join.Lazy_join.cross_pairs; in_pairs; segments_skipped; _ } = stats in
    Printf.printf "%s%s%s: %d pairs in %.2f ms (%d cross-segment, %d in-segment, %d segments skipped)\n"
      anc (if child then "/" else "//") desc (cross_pairs + in_pairs) ms cross_pairs in_pairs
      segments_skipped;
    if show then List.iter (fun (a, d) -> Printf.printf "  %d -> %d\n" a d) pairs
  in
  cmd "query" ~doc:"Evaluate a structural join over a document."
    Term.(const run $ document ~attributes:true () $ anc $ desc $ child $ show $ deadline_arg)

(* --- stats ------------------------------------------------------------- *)

let stats_cmd =
  let run db = print_sizes ~indent:0 db in
  cmd "stats" ~doc:"Print index statistics for a document."
    Term.(const run $ document ())

(* --- insert / remove ---------------------------------------------------- *)

(* Parses a batch file: one edit per line, [gp<TAB>path] where [path]
   names a file holding the XML fragment to insert at [gp].  Blank
   lines and [#] comments are skipped. *)
let read_batch_file path =
  String.split_on_char '\n' (read_file path)
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (lineno, line) ->
         let fail what = failwith (Printf.sprintf "%s:%d: %s" path lineno what) in
         match String.index_opt line '\t' with
         | None -> fail "expected gp<TAB>fragment-file"
         | Some tab ->
           let gp =
             match int_of_string_opt (String.trim (String.sub line 0 tab)) with
             | Some gp -> gp
             | None -> fail "malformed byte position"
           in
           (gp, read_file (String.trim (String.sub line (tab + 1) (String.length line - tab - 1)))))

let insert_cmd =
  let at = Arg.(value & opt (some int) None & info [ "at" ] ~docv:"POS" ~doc:"Byte position.") in
  let frag = Arg.(value & opt (some string) None & info [ "fragment" ] ~doc:"XML fragment to insert.") in
  let batch = Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
                     ~doc:"Apply a batch of inserts through the group-committed write path: \
                           one edit per line in $(docv), formatted as gp<TAB>fragment-file, \
                           positions interpreted after the preceding edits of the batch.") in
  let run db doc at frag batch =
    let edits =
      match (batch, at, frag) with
      | Some path, None, None -> read_batch_file path
      | None, Some at, Some frag -> [ (at, frag) ]
      | Some _, _, _ -> failwith "--batch excludes --at/--fragment"
      | None, _, _ -> failwith "need either --batch or both --at and --fragment"
    in
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
  cmd "insert"
    ~doc:"Insert one fragment — or a batch of them — and write the document back."
    Term.(const run $ document () $ doc_arg $ at $ frag $ batch)

let remove_cmd =
  let at = Arg.(required & opt (some int) None & info [ "at" ] ~docv:"POS" ~doc:"Byte position.") in
  let len = Arg.(required & opt (some int) None & info [ "len" ] ~docv:"LEN" ~doc:"Byte count.") in
  let run db doc at len =
    let t0 = Unix.gettimeofday () in
    Lazy_db.remove db ~gp:at ~len;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Printf.printf "removed %d bytes at %d in %.3f ms (%d segments remain)\n" len at ms
      (Lazy_db.segment_count db);
    write_file doc (Lazy_db.text db)
  in
  cmd "remove" ~doc:"Remove a byte range and write the document back."
    Term.(const run $ document () $ doc_arg $ at $ len)

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
    write_doc out text
  in
  cmd "generate" ~doc:"Generate a test document."
    Term.(const run $ kind $ out $ seed $ size)

(* --- path ----------------------------------------------------------------- *)

let path_cmd =
  let expr = Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH"
                    ~doc:"Path expression, e.g. //person/profile//interest or //person/@id.") in
  let run db expr deadline_ms =
    let t0 = Unix.gettimeofday () in
    let matches =
      with_deadline deadline_ms (fun guard ->
          Path_query.eval ?guard db (Path_query.parse_exn expr))
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Printf.printf "%s: %d matches in %.2f ms\n" expr (List.length matches) ms;
    List.iter (fun (s, e) -> Printf.printf "  [%d, %d)\n" s e) matches
  in
  cmd "path" ~doc:"Evaluate a path expression over a document."
    Term.(const run $ document ~attributes:true () $ expr $ deadline_arg)

(* --- explain --------------------------------------------------------------- *)

let explain_cmd =
  let expr = Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH"
                    ~doc:"Path expression, e.g. //person/profile//interest.") in
  let run db expr deadline_ms =
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
  cmd "explain"
    ~doc:"Run a path expression and show how: each predicate and each spine step \
          that ends a semi-join hop, with its slot-restricted candidates and its \
          survivors.  A predicate-free path is one hop and runs no join."
    Term.(const run $ document ~attributes:true () $ expr $ deadline_arg)

(* --- snapshots -------------------------------------------------------------- *)

let save_cmd =
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Snapshot file.") in
  let run db out =
    Lazy_db.save db out;
    print_state
      (fun segs elems _ -> Printf.printf "saved %d segments (%d elements) to %s\n" segs elems out)
      db
  in
  cmd "save" ~doc:"Load a document and write an index snapshot."
    Term.(const run $ document () $ out)

let restore_cmd =
  let snap = Arg.(required & pos 0 (some file) None & info [] ~docv:"SNAPSHOT"
                    ~doc:"Snapshot file, or a WAL durability directory for point-in-time restore.") in
  let lsn = Arg.(value & opt (some int) None & info [ "lsn" ] ~docv:"N"
                   ~doc:"Point-in-time bound: rebuild the state as of committed LSN $(docv), \
                         at or above the checkpoint LSN of the directory's snapshot (requires a \
                         WAL directory; default: everything committed).  Every lazyxml command \
                         that writes a WAL directory checkpoints and truncates its log, so a \
                         directory written by this tool restores to its checkpoint's state and \
                         refuses any $(docv) below it.") in
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
    print_state (Printf.printf "restored %d segments, %d elements, %d bytes of document\n") db;
    Option.iter (fun path -> write_doc path (Lazy_db.text db)) out
  in
  cmd "restore"
    ~doc:"Restore an index snapshot, or a WAL directory as of a chosen LSN (--lsn)."
    Term.(const run $ snap $ lsn $ out)

(* --- durability: checkpoint / recover ------------------------------------ *)

(* Recovers WAL directory [dir] and prints what recovery did. *)
let recover ?storage dir =
  let db, r = Lazy_db.recover ?storage dir in
  Printf.printf "recovered %s: snapshot lsn %d, %d wal record(s) replayed, %d skipped\n" dir
    r.Lxu_storage.Recovery.snapshot_lsn r.Lxu_storage.Recovery.records_applied
    r.Lxu_storage.Recovery.records_skipped;
  Option.iter
    (Printf.printf "  truncated %d corrupt byte(s): %s\n"
       (r.Lxu_storage.Recovery.total_bytes - r.Lxu_storage.Recovery.valid_bytes))
    r.Lxu_storage.Recovery.corruption;
  db

let checkpoint_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"WAL durability directory.") in
  let from = Arg.(value & opt (some file) None & info [ "from" ] ~docv:"DOC"
                    ~doc:"Initialise $(i,DIR) fresh from this XML document before checkpointing \
                          (otherwise $(i,DIR) is recovered first).") in
  let run dir load from storage =
    let db =
      match from with
      | Some doc -> load ~durability:(`Wal dir) ~storage ~index_attributes:false doc
      | None -> recover ~storage dir
    in
    Lazy_db.checkpoint db;
    Lazy_db.close db;
    print_state
      (Printf.printf "checkpointed %d segment(s), %d element(s), %d byte(s) into %s\n")
      db dir
  in
  cmd "checkpoint"
    ~doc:"Snapshot a WAL directory's database and rotate its log to empty."
    Term.(const run $ dir $ loader $ from $ storage_arg)

let recover_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"WAL durability directory.") in
  let out = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
                   ~doc:"Also write the recovered document text to $(docv).") in
  let run dir out storage =
    let db = recover ~storage dir in
    print_state (Printf.printf "state: %d segment(s), %d element(s), %d byte(s) of document\n") db;
    Option.iter (fun path -> write_doc path (Lazy_db.text db)) out;
    Lazy_db.close db
  in
  cmd "recover"
    ~doc:"Recover a database from snapshot + WAL, repairing a torn or corrupt tail."
    Term.(const run $ dir $ out $ storage_arg)

(* --- info ------------------------------------------------------------------ *)

let info_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"WAL durability directory.") in
  let paths = Arg.(value & opt int 0 & info [ "paths" ] ~docv:"N"
                     ~doc:"Also list the $(docv) heaviest root-to-element paths of the \
                           synopsis.") in
  let run dir storage paths =
    let db = recover ~storage dir in
    print_sizes ~indent:1 db;
    (match Lazy_db.wal_bytes db with
    | Some b -> Printf.printf "wal bytes       : %d\n" b
    | None -> ());
    Printf.printf "storage         : %s\n"
      (match Lazy_db.storage_kind db with `Mem -> "mem" | `Paged -> "paged");
    (match Lazy_db.page_stats db with
    | None -> ()
    | Some s ->
      let p = s.Lxu_storage.Page_store.pool in
      Printf.printf "page store      : %d pages x %d bytes, %d free; %d alloc(s), %d free(s)\n"
        s.Lxu_storage.Page_store.pages s.Lxu_storage.Page_store.page_size
        s.Lxu_storage.Page_store.free_pages s.Lxu_storage.Page_store.allocs
        s.Lxu_storage.Page_store.frees;
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
  cmd "info"
    ~doc:"Print store statistics for a WAL directory: pages, buffer pool, WAL size, \
          fragmentation and path-synopsis summary."
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
    let db = recover dir in
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
  cmd "compact"
    ~doc:"Pay down a WAL directory's maintenance debt: pack fragmented subtrees, merge \
          tag lists, checkpoint and truncate the log."
    Term.(const run $ dir $ pack_segments $ pack_depth)

let backup_cmd =
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
                   ~doc:"Live WAL durability directory.") in
  let dst = Arg.(required & pos 1 (some string) None & info [] ~docv:"DEST"
                   ~doc:"Backup target directory (created if missing).") in
  let run src dst =
    let db = recover src in
    let lsn = Lazy_db.backup db ~dir:dst in
    Lazy_db.close db;
    Printf.printf "backed up %s through lsn %d into %s (restore it with 'lazyxml restore %s'; \
                   --lsn N must be at or above the backup's checkpoint lsn)\n"
      src lsn dst dst
  in
  cmd "backup" ~doc:"Ship a WAL directory's snapshot + log to a backup directory, atomically."
    Term.(const run $ src $ dst)

(* --- chop ----------------------------------------------------------------- *)

let chop_cmd =
  let run doc segments shape =
    let text = read_file doc in
    let edits = Lxu_workload.Chopper.chop ~text ~segments shape in
    Printf.printf "%d segments:\n" (List.length edits);
    List.iter
      (fun (gp, frag) -> Printf.printf "  insert %6d bytes at %d\n" (String.length frag) gp)
      edits
  in
  cmd "chop" ~doc:"Show the segment insertion schedule for a document."
    Term.(const run $ doc_arg $ segments_arg $ shape_arg)

let () =
  let info =
    Cmd.info "lazyxml" ~version:"1.0.0" ~exits
      ~doc:"Lazy XML updates and segment-aware structural joins (SIGMOD 2005 reproduction)."
  in
  (* [Failure] is the commands' user-error channel (bad --lsn bound,
     malformed batch file, ...), and a bad position, path, fragment or
     file is a user error too: report them as a message, not a crash.
     Anything else escaping is an internal error, never exit 2. *)
  match
    Cmd.eval_value ~catch:false
      (Cmd.group info
         [ query_cmd; stats_cmd; insert_cmd; remove_cmd; generate_cmd; chop_cmd; path_cmd;
           explain_cmd; save_cmd; restore_cmd; checkpoint_cmd; recover_cmd; info_cmd;
           compact_cmd; backup_cmd ])
  with
  | Ok _ -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
    Printf.eprintf "lazyxml: %s\n" msg;
    exit 1
  | exception Lxu_xml.Parser.Parse_error { pos; msg } ->
    Printf.eprintf "lazyxml: XML parse error at byte %d: %s\n" pos msg;
    exit 1
  | exception e ->
    Printf.eprintf "lazyxml: internal error: %s\n" (Printexc.to_string e);
    exit 125
