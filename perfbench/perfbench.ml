(* End-to-end benchmark with a traced per-layer run.  See README.md in
   this directory for the workloads, their sizes and budgets, and the
   per-layer -> end-to-end map.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 --work DIR

   The seed drives the operation schedule (op order, insert positions,
   fragments, remove targets); the document itself is the fixed XMark
   document of the workload.  The schedule length is a function of
   [--seconds] alone — never of the clock — so the same seed replays
   the identical state sequence and prints the identical digest.  The
   last stdout line is the JSON result. *)

open Lazy_xml
open Lxu_workload
module Lj = Lxu_join.Lazy_join
module Ul = Lxu_seglog.Update_log
module Seg_cache = Lxu_seglog.Seg_cache

(* --- arguments ------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let traced = ref false
let work = ref ""
let smoke = ref false
let wrong_reference = ref false

let parse_args () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "xmark_read | churn_durable | paged_beyond_ram");
      ("--seed", Arg.Set_int seed, "schedule seed");
      ("--seconds", Arg.Set_int seconds, "nominal length of the timed phase");
      ("--trace", Arg.Int (fun i -> traced := i <> 0), "0: end-to-end metrics, 1: per-layer");
      ("--work", Arg.Set_string work, "scratch directory for WAL and page files");
      ("--smoke", Arg.Set smoke, "tiny sizes (the benchmark's own test)");
      ( "--wrong-reference",
        Arg.Set wrong_reference,
        "perturb the oracle's answers (proves the checker fires)" );
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe";
  if !work = "" then raise (Arg.Bad "--work is required");
  if !seconds < 1 then raise (Arg.Bad "--seconds must be >= 1")

(* --- small utilities ------------------------------------------------- *)

let now = Lxu_util.Deadline.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile of an unsorted sample. *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median l = quantile l 0.5

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A crash image: the byte contents of every file in [src], as the OS
   holds them right now — no close, no flush beyond what the program
   already did. *)
let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc (read_file (Filename.concat src f))))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let settle () = Gc.compact ()

(* --- host speed ------------------------------------------------------ *)

(* A shared host's speed drifts by +-20% over seconds to minutes, and
   the drift moves every operation of a run together.  A fixed
   stdlib-only kernel, run between operations throughout the run,
   measures that speed: every timed sample is reported scaled by
   [kernel_ref / median of the 17 kernel runs nearest to it in time],
   i.e. in seconds of a host on which the kernel takes [kernel_ref].
   The kernel's allocations are short-lived, so the program's heap
   does not slow it down, and no change to the program can move it. *)
let kernel_ref = 1.5e-3
let host_samples = ref []
let kernel_spent = ref 0.0  (** seconds spent in the kernel, to keep it out of set-up times *)

let calibrate () =
  let x = ref 0x2545F491 in
  let (), dt =
    timed (fun () ->
        let l =
          List.init 8192 (fun _ ->
              x := ((!x * 1103515245) + 12345) land 0x3fffffff;
              !x)
        in
        ignore (Sys.opaque_identity (List.fold_left ( + ) 0 (List.sort compare l))))
  in
  host_samples := (now (), dt) :: !host_samples;
  kernel_spent := !kernel_spent +. dt

let calibrate_n n =
  for _ = 1 to n do
    calibrate ()
  done

(* Scales timed samples [(at, seconds)] to the reference host speed. *)
let normalize samples =
  let k = Array.of_list (List.rev !host_samples) in
  let n = Array.length k in
  let local at =
    (* first kernel run at or after [at] *)
    let rec search lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if fst k.(mid) < at then search (mid + 1) hi else search lo mid
    in
    let i = search 0 n in
    let lo = max 0 (min (n - 17) (i - 8)) in
    median (List.init (min 17 n) (fun j -> snd k.(lo + j)))
  in
  List.map (fun (at, dt) -> dt *. kernel_ref /. local at) samples

(* Order-sensitive fingerprint of read results. *)
let mix h x = ((h * 1_000_003) lxor x) land max_int
let fp_pairs l = List.fold_left (fun h (a, d) -> mix (mix h a) d) 17 l

(* --- documents ------------------------------------------------------- *)

(* The fig_parallel XMark document: [segments] balanced segments plus
   cross-segment watch/interest inserts inside existing elements, as
   one insertion schedule.  The extra inserts are applied back to front
   so each lands at its intended offset of the chopped document. *)
let xmark_doc ~persons ~segments =
  let text = Xmark.generate_text ~persons ~items:(persons * 3 / 5) ~seed:42 () in
  let extra_inside marker fragment =
    let m = String.length marker in
    let points = ref [] and k = ref 0 in
    for i = 0 to String.length text - m do
      if String.sub text i m = marker then begin
        if !k mod 12 = 0 then points := (String.index_from text i '>' + 1, fragment) :: !points;
        incr k
      end
    done;
    !points
  in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  let extra =
    extra_inside "<watches>" (rep 16 "<watch open_auction=\"oa0\"/>")
    @ extra_inside "<profile " (rep 8 "<interest category=\"extra\"/>")
  in
  Chopper.chop ~text ~segments Chopper.Balanced @ List.sort (fun a b -> compare b a) extra

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: r when k > 0 -> take (k - 1) (x :: acc) r
      | r -> (List.rev acc, r)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

(* --- legal insert positions ------------------------------------------ *)

(* Insert points are tag boundaries of the original document: just
   inside a <watches> or <profile ...> start tag, or just before a
   <person start tag.  The benchmark tracks them (and every fragment
   it inserted) through its own edits, so positions stay legal
   without reading the document back.  Fragment kinds rotate and
   removes take the oldest live fragment, so every seed sees the same
   mix of fragment sizes; the seed picks the positions. *)
type kind = Watch | Interest | Person

type model = {
  pos : int array;
  by_kind : int array array;  (** anchor indices of each kind *)
  mutable frags : (int * int) array;  (** inserted fragments (start, len), oldest first *)
  mutable first : int;  (** [frags.(first .. last-1)] are live *)
  mutable last : int;
  mutable doc_len : int;
  mutable serial : int;
}

let kinds = [| Watch; Interest; Person |]

let make_model text =
  let pos = ref [] in
  let scan marker kind ~after =
    let m = String.length marker in
    for i = 0 to String.length text - m do
      if String.sub text i m = marker then
        pos := ((if after then String.index_from text i '>' + 1 else i), kind) :: !pos
    done
  in
  scan "<watches>" Watch ~after:true;
  scan "<profile " Interest ~after:true;
  scan "<person " Person ~after:false;
  let a = Array.of_list (List.sort compare !pos) in
  let of_kind k =
    Array.of_list (List.filter (fun i -> snd a.(i) = k) (List.init (Array.length a) Fun.id))
  in
  {
    pos = Array.map fst a;
    by_kind = Array.map of_kind kinds;
    frags = Array.make 64 (0, 0);
    first = 0;
    last = 0;
    doc_len = String.length text;
    serial = 0;
  }

let live m = m.last - m.first

(* Every tracked position at or after [gp] moves by [delta]; anchors
   exactly at [gp] stay (an insert there lands after them). *)
let shift m ~gp ~delta ~frag_at_gp =
  Array.iteri (fun i p -> if p > gp then m.pos.(i) <- p + delta) m.pos;
  for i = m.first to m.last - 1 do
    let s, l = m.frags.(i) in
    if s > gp || (frag_at_gp && s = gp) then m.frags.(i) <- (s + delta, l)
  done

let model_insert m ~gp ~len =
  shift m ~gp ~delta:len ~frag_at_gp:true;
  if m.last = Array.length m.frags then begin
    let bigger = Array.make (2 * (live m + 1)) (0, 0) in
    Array.blit m.frags m.first bigger 0 (live m);
    m.last <- live m;
    m.first <- 0;
    m.frags <- bigger
  end;
  m.frags.(m.last) <- (gp, len);
  m.last <- m.last + 1;
  m.doc_len <- m.doc_len + len

let remove_oldest m =
  let gp, len = m.frags.(m.first) in
  m.first <- m.first + 1;
  shift m ~gp ~delta:(-len) ~frag_at_gp:false;
  m.doc_len <- m.doc_len - len;
  (gp, len)

(* A fresh insert at a seeded legal position; the model is updated. *)
let next_insert m rng =
  let kind = m.serial mod Array.length kinds in
  m.serial <- m.serial + 1;
  let n = m.serial in
  let anchors = m.by_kind.(kind) in
  let gp = m.pos.(anchors.(Rng.int rng (Array.length anchors))) in
  let text =
    match kinds.(kind) with
    | Watch -> Printf.sprintf "<watch open_auction=\"oa%d\"/>" (Rng.int rng 1000)
    | Interest -> Printf.sprintf "<interest category=\"c%d\"/>" (Rng.int rng 100)
    | Person ->
      Printf.sprintf
        "<person id=\"bench%d\"><name>b%d</name><emailaddress>mailto:b%d@example.com</emailaddress>%s<profile \
         income=\"%d\"><interest category=\"c%d\"/><business>No</business></profile><watches><watch \
         open_auction=\"oa%d\"/></watches></person>"
        n n n
        (if Rng.bool rng then "<phone>+1 555</phone>" else "")
        (Rng.int rng 99999) (Rng.int rng 100) (Rng.int rng 1000)
  in
  model_insert m ~gp ~len:(String.length text);
  (gp, text)

(* --- reads ----------------------------------------------------------- *)

type read = Query of string * string | Count of string * string | Path of string

let read_name = function
  | Query (a, d) -> Printf.sprintf "query %s//%s" a d
  | Count (a, d) -> Printf.sprintf "count %s//%s" a d
  | Path p -> "path " ^ p

let fig14 = List.map (fun (_, a, d) -> (a, d)) Xmark.queries

(* Twigs with a predicate, child axes and reversed selectivity (a rare
   leaf under common ancestors), so the planner's choices matter. *)
let xmark_paths =
  [
    "//person[profile/interest]/name";
    "/site/people/person/watches/watch";
    "//open_auction[bidder]/seller";
    "//people//person//creditcard";
    "//site//regions//item//text";
  ]

(* Distinct reads of a type come in odd numbers, each once per cycle,
   so a p50 falls inside one read's distribution instead of on the
   boundary between two. *)

(* A broad tag vocabulary: together these touch most tag lists of the
   document, so the working set exceeds both caches. *)
let broad_counts =
  [
    ("person", "phone"); ("person", "city"); ("address", "zipcode"); ("profile", "interest");
    ("profile", "education"); ("profile", "age"); ("watches", "watch"); ("person", "creditcard");
    ("item", "location"); ("item", "quantity"); ("open_auction", "bidder"); ("bidder", "increase");
    ("category", "name"); ("regions", "text"); ("open_auction", "itemref");
  ]

(* Few-pair queries: at this size a Q1-like query is all local->global
   translation, which xmark_read already measures. *)
let selective_queries =
  [
    ("categories", "description"); ("africa", "location"); ("samerica", "quantity");
    ("asia", "payment"); ("australia", "name"); ("europe", "text"); ("namerica", "payment");
  ]

let reads_of_workload = function
  | "xmark_read" | "churn_durable" ->
    List.map (fun (a, d) -> Query (a, d)) fig14
    @ List.map (fun (a, d) -> Count (a, d)) fig14
    @ List.map (fun p -> Path p) xmark_paths
  | _ ->
    List.map (fun (a, d) -> Query (a, d)) selective_queries
    @ List.map (fun (a, d) -> Count (a, d)) broad_counts
    @ List.map (fun p -> Path p) xmark_paths

(* The planner's input, built the same way Path_query builds it. *)
let chain_of steps =
  let arr = Array.of_list steps in
  {
    Lxu_plan.Plan.tags = Array.map (fun s -> s.Path_query.tag) arr;
    axes =
      Array.map
        (fun s ->
          match s.Path_query.axis with
          | Path_query.Desc -> Lxu_plan.Plan.Desc
          | Path_query.Child -> Lxu_plan.Plan.Child)
        arr;
    has_preds = List.exists (fun s -> s.Path_query.predicates <> []) steps;
  }

(* Per-layer counters gathered in the traced run. *)
type layer = {
  mutable pairs : int;
  mutable fetched : int;
  mutable a_segments : int;
  mutable skipped : int;
  mutable seg_at_read : int;
  mutable reads : int;
  mutable versions_max : int;
  mutable wal_bytes : int;
  mutable updates : int;
  mutable replayed : int;
  jobs : (string, int * float) Hashtbl.t;  (** maintainer job -> (count, seconds) *)
}

let layer =
  {
    pairs = 0; fetched = 0; a_segments = 0; skipped = 0; seg_at_read = 0; reads = 0;
    versions_max = 0; wal_bytes = 0; updates = 0; replayed = 0; jobs = Hashtbl.create 8;
  }

let log_of db = Option.get (Lazy_db.log db)

let note_join (st : Lj.stats) npairs =
  layer.pairs <- layer.pairs + npairs;
  layer.fetched <- layer.fetched + st.Lj.elements_fetched;
  layer.a_segments <- layer.a_segments + st.Lj.a_segments;
  layer.skipped <- layer.skipped + st.Lj.segments_skipped

type res = Pairs of (int * int) list | Num of int

let fingerprint = function Pairs l -> fp_pairs l | Num n -> n

(* One read against [db], through the public API when untraced and
   through the layer functions it is made of when traced. *)
let run_read ~trace db r =
  if not trace then
    match r with
    | Query (anc, desc) -> Pairs (fst (Lazy_db.query db ~anc ~desc ()))
    | Count (anc, desc) -> Num (Lazy_db.count db ~anc ~desc ())
    | Path p -> Pairs (Path_query.eval db (Path_query.parse_exn p))
  else begin
    let log = log_of db in
    layer.reads <- layer.reads + 1;
    layer.seg_at_read <- layer.seg_at_read + Ul.segment_count log;
    match r with
    | Query (anc, desc) ->
      let pairs, st = Trace.span "lazy_join.run" (fun () -> Lj.run log ~anc ~desc ()) in
      note_join st (Array.length pairs);
      Pairs (Trace.span "lazy_join.global_pairs" (fun () -> Lj.global_pairs log pairs))
    | Count (anc, desc) ->
      let pairs, st = Trace.span "lazy_join.run" (fun () -> Lj.run log ~anc ~desc ()) in
      note_join st (Array.length pairs);
      Num (Array.length pairs)
    | Path p ->
      let steps = Path_query.parse_exn p in
      Pairs (Trace.span "path_query.eval" (fun () -> Path_query.eval db steps))
  end

(* The planning share of a path, timed beside (not inside) the op. *)
let trace_plan db = function
  | Path p when !Trace.on ->
    let log = log_of db in
    let chain = chain_of (Path_query.parse_exn p) in
    ignore
      (Trace.span "plan.choose" (fun () ->
           Lxu_plan.Plan.choose ~allow_holistic:(not (Ul.is_frozen log)) ~log chain))
  | _ -> ()

(* --- the database under test ----------------------------------------- *)

type db =
  | Plain of { db : Lazy_db.t; dir : string option }
  | Governed of { gov : Governor.t; maint : Maintainer.t; gdir : string }

let ok = function
  | Ok x -> x
  | Error e -> failwith ("governor rejected: " ^ Governor.rejection_to_string e)

let with_read st f =
  match st with
  | Plain p -> f p.db
  | Governed g -> ok (Governor.read g.gov (fun _ db -> f db))

let with_live st f =
  match st with
  | Plain p -> f p.db
  | Governed g -> ok (Governor.write g.gov (fun _ db -> f db))

let durable_dir = function Plain p -> p.dir | Governed g -> Some g.gdir

type write = Insert of int * string | Remove of int * int | Batch of (int * string) list

let apply db = function
  | Insert (gp, text) -> Lazy_db.insert db ~gp text
  | Remove (gp, len) -> Lazy_db.remove db ~gp ~len
  | Batch edits -> Lazy_db.insert_many db edits

let write_span = function
  | Insert _ -> "lazy_db.insert"
  | Remove _ -> "lazy_db.remove"
  | Batch _ -> "lazy_db.insert_many"

(* One write, acknowledged: applied and its WAL records committed (the
   program's commit flushes them to the OS, where the crash image reads
   them). *)
let run_write st w =
  if not !Trace.on then
     match (st, w) with
     | Plain p, _ -> apply p.db w
     | Governed g, Insert (gp, text) -> ok (Governor.insert g.gov ~gp text)
     | Governed g, Remove (gp, len) -> ok (Governor.remove g.gov ~gp ~len ())
     | Governed g, Batch edits -> ok (Governor.insert_many g.gov edits)
   else begin
     (match w with
     | Insert (_, text) ->
       ignore (Trace.span "parser.parse" (fun () -> Lxu_xml.Parser.parse_fragment text))
     | _ -> ());
     let inner db =
       let before = Option.value (Lazy_db.wal_bytes db) ~default:0 in
       Trace.span "lazy_db.batch" (fun () ->
           Lazy_db.batch db (fun () -> Trace.span (write_span w) (fun () -> apply db w)));
       let after = Option.value (Lazy_db.wal_bytes db) ~default:0 in
       layer.wal_bytes <- layer.wal_bytes + (after - before);
       layer.updates <- layer.updates + 1
     in
     match st with
     | Plain p -> inner p.db
     | Governed g -> ok (Trace.span "governor.write" (fun () -> Governor.write g.gov (fun _ db -> inner db)))
   end

let job_name = function
  | Maintainer.Ran (Maintainer.Pack _) -> "pack"
  | Maintainer.Ran (Maintainer.Checkpoint _) -> "checkpoint"
  | Maintainer.Ran (Maintainer.Merge_tag_runs _) -> "merge"
  | Maintainer.Ran _ -> "other"
  | Maintainer.Idle | Maintainer.Busy | Maintainer.Shed _ -> "idle"

(* A maintenance step, timed into the write that triggers it: a
   maintainer tick on the governed store, a checkpoint on the paged
   one. *)
let maintain st =
  match st with
  | Governed g ->
    let o, dt = timed (fun () -> Trace.span "maintainer.tick" (fun () -> Maintainer.tick g.maint)) in
    if !Trace.on then begin
      let j = job_name o in
      let n, s = Option.value (Hashtbl.find_opt layer.jobs j) ~default:(0, 0.0) in
      Hashtbl.replace layer.jobs j (n + 1, s +. dt)
    end
  | Plain p -> Trace.span "page_store.checkpoint" (fun () -> Lazy_db.checkpoint p.db)

(* --- workload parameters --------------------------------------------- *)

type op = Read of read | W_insert | W_remove | W_batch

let rep n x = List.init n (fun _ -> x)

type params = {
  persons : int;
  segments : int;
  setups : int;  (** set-up repetitions; [setup_s] is their median *)
  cycles : int;  (** schedule length, in cycles of the workload's mix *)
  writes : op list;  (** the writes of one cycle *)
  tail : int;  (** xmark_read: cycles of the in-memory write tail *)
  maintain_every : int;  (** writes per maintenance step (0 = none) *)
  recovers : int;  (** restart repetitions; [recover_s] is their median *)
}

(* [n] single inserts, [n - 1] removes of earlier inserts and one
   insert_many of 64. *)
let mixed_writes n = rep n W_insert @ rep (n - 1) W_remove @ [ W_batch ]

(* Cycle counts are calibrated so that one cycle takes roughly
   [1 / per_s] seconds on a 2-vCPU x86-64 host; the schedule never
   looks at the clock. *)
let params name secs =
  let cycles per_s = max 1 (int_of_float (per_s *. float secs)) in
  if !smoke then
    { persons = (if name = "paged_beyond_ram" then 240 else 120); segments = 40; setups = 2;
      cycles = 3; writes = mixed_writes 7; tail = 2; maintain_every = 8; recovers = 2 }
  else
    match name with
    | "xmark_read" ->
      { persons = 2000; segments = 500; setups = 3; cycles = cycles 2.0; writes = mixed_writes 14;
        tail = 20; maintain_every = 0; recovers = 5 }
    | "churn_durable" ->
      { persons = 2000; segments = 500; setups = 3; cycles = cycles 2.0; writes = mixed_writes 14;
        tail = 0; maintain_every = 8; recovers = 5 }
    | _ ->
      { persons = 4000; segments = 500; setups = 3; cycles = cycles 1.3; writes = mixed_writes 20;
        tail = 0; maintain_every = 64; recovers = 5 }

let pool_budget = 512 * 1024

(* --- set-up ---------------------------------------------------------- *)

(* Builds the workload's database from scratch: bulk load in
   insert_many groups of 64, then whatever the workload's storage needs
   before it serves.  Returns the database and the (time, seconds) of every
   group, in load order. *)
let setup name ~edits ~dir =
  let group_s = ref [] in
  let ingest insert_many =
    List.iter
      (fun g ->
        let (), dt = timed (fun () -> insert_many g) in
        group_s := (now (), dt) :: !group_s;
        calibrate ())
      (chunks 64 edits)
  in
  let st =
    match name with
    | "xmark_read" ->
      let db = Lazy_db.create ~domains:1 () in
      ingest (Lazy_db.insert_many db);
      Plain { db; dir = None }
    | "churn_durable" ->
      let gov = Governor.create ~domains:1 ~durability:(`Wal dir) () in
      ingest (fun g -> ok (Governor.insert_many gov g));
      Shared_db.checkpoint (Governor.shared gov);
      (* A run appends ~0.2 MB of WAL: a 64 KiB rolling-checkpoint
         bound makes the maintainer checkpoint a few times per run (the
         default 1 MiB would never fire).  Packs never fire on this
         document: its only top-level subtree is the whole document,
         larger than [max_pack_bytes]. *)
      let config = { Maintainer.default_config with checkpoint_wal_bytes = 64 * 1024 } in
      Governed { gov; maint = Maintainer.of_governor ~config gov; gdir = dir }
    | _ ->
      let db =
        Lazy_db.create ~domains:1 ~storage:`Paged ~durability:(`Wal dir) ~cache_bytes:pool_budget ()
      in
      ingest (Lazy_db.insert_many db);
      Lazy_db.checkpoint db;
      Lazy_db.close db;
      (* Reattach: the timed phase starts on a cold pool. *)
      let db, _ = Lazy_db.recover ~domains:1 ~storage:`Paged dir in
      Plain { db; dir = Some dir }
  in
  (st, List.rev !group_s)

let close = function
  | Plain p -> Lazy_db.close p.db
  | Governed g -> Shared_db.close (Governor.shared g.gov)

(* --- accounting ------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let errors = ref []

let fail what =
  incr failed;
  if List.length !errors < 10 then errors := what :: !errors

(* The materialization oracle: a fresh single-segment database built
   from the document text answers every distinct read of the mix, and
   the database under test must agree. *)
let oracle_check st reads ~expect_len =
  let text, actual =
    with_read st (fun db -> (Lazy_db.text db, List.map (fun r -> fingerprint (run_read ~trace:false db r)) reads))
  in
  let o = Lazy_db.create ~domains:1 () in
  Lazy_db.insert o ~gp:0 text;
  let expected =
    List.map
      (fun r ->
        let f = fingerprint (run_read ~trace:false o r) in
        if !wrong_reference then f + 1 else f)
      reads
  in
  List.iter2
    (fun r (a, e) ->
      incr attempted;
      if a <> e then fail ("oracle mismatch: " ^ read_name r))
    reads (List.combine actual expected);
  incr attempted;
  if String.length text <> expect_len then
    fail (Printf.sprintf "doc length %d, expected %d" (String.length text) expect_len);
  List.combine reads expected

(* --- the timed phase ------------------------------------------------- *)

let sample_versions = function
  | Governed g -> (
    match Shared_db.mvcc_stats (Governor.shared g.gov) with
    | Some ms -> layer.versions_max <- max layer.versions_max ms.Shared_db.versions
    | None -> ())
  | Plain _ -> ()

let op_type = function
  | Read (Query _) -> "query"
  | Read (Count _) -> "count"
  | Read (Path _) -> "path"
  | W_insert | W_remove -> "update"
  | W_batch -> "batch"

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [cycles] repetitions of: every distinct read once, plus the given
   writes, in a seeded order. *)
let schedule rng ~cycles ~reads ~writes =
  Array.concat
    (List.init cycles (fun _ ->
         shuffle rng (Array.of_list (List.map (fun r -> Read r) reads @ writes))))

type run = {
  lat : (string, (float * float) list) Hashtbl.t;  (** op type -> (time, seconds), one per op *)
  counts : (string, int) Hashtbl.t;
  mutable fp : int;
  mutable writes : int;
}

let new_run () = { lat = Hashtbl.create 8; counts = Hashtbl.create 8; fp = 17; writes = 0 }

(* [key] is the op type, prefixed with "traced." for traced ops; the
   digest counts ops by type either way. *)
let record run key dt =
  let ty = match String.split_on_char '.' key with [ "traced"; ty ] -> ty | _ -> key in
  Hashtbl.replace run.lat key ((now (), dt) :: Option.value (Hashtbl.find_opt run.lat key) ~default:[]);
  Hashtbl.replace run.counts ty (1 + Option.value (Hashtbl.find_opt run.counts ty) ~default:0)

let next_write m rng = function
  | W_remove when live m > 0 ->
    let gp, len = remove_oldest m in
    Remove (gp, len)
  | W_batch -> Batch (List.init 64 (fun _ -> next_insert m rng))
  | _ ->
    let gp, text = next_insert m rng in
    Insert (gp, text)

(* Runs [sched] closed-loop: one op at a time, each timed on its own.
   Oracle checks run outside timing before the ops at [check_at] and,
   with [final_check], after the last op; with [verify_each] (a
   read-only phase) every read is also checked against the oracle's
   last answer.  With [trace], every other occurrence of each distinct
   op (each read, each write kind, and any write carrying a maintenance
   step) is traced: traced and untraced ops of a type then have the same
   composition, meet the same states and the same host speed, so their
   difference is the tracing overhead. *)
let execute st run m rng sched ~trace ~reads ~check_at ~final_check ~maintain_every ~verify_each =
  let expected = ref [] in
  let seen = Hashtbl.create 32 in
  let writes = ref run.writes in
  Array.iteri
    (fun i op ->
      Trace.on := false;
      if List.mem i check_at then expected := oracle_check st reads ~expect_len:m.doc_len;
      if i mod 2 = 0 then calibrate ();
      Trace.next_op ();
      let tick =
        match op with
        | Read _ -> false
        | _ ->
          incr writes;
          maintain_every > 0 && !writes mod maintain_every = 0
      in
      let key = if tick then None else Some op in
      let n = Option.value (Hashtbl.find_opt seen key) ~default:0 in
      Hashtbl.replace seen key (n + 1);
      Trace.on := trace && n mod 2 = 0;
      let ty = op_type op in
      let key ty = if !Trace.on then "traced." ^ ty else ty in
      incr attempted;
      match op with
      | Read r -> (
        match
          timed (fun () ->
              Trace.span ("op." ^ ty) (fun () -> with_read st (fun db -> run_read ~trace:!Trace.on db r)))
        with
        | res, dt ->
          record run (key ty) dt;
          let f = fingerprint res in
          run.fp <- mix run.fp f;
          if verify_each && List.assoc r !expected <> f then fail ("wrong result: " ^ read_name r);
          if !Trace.on then begin
            with_read st (fun db -> trace_plan db r);
            sample_versions st
          end
        | exception e -> fail (read_name r ^ ": " ^ Printexc.to_string e))
      | _ -> (
        let w = next_write m rng op in
        let ty = match w with Batch _ -> "batch" | _ -> ty in
        run.writes <- !writes;
        match
          timed (fun () ->
              Trace.span ("op." ^ ty) (fun () ->
                  run_write st w;
                  if tick then maintain st))
        with
        | (), dt ->
          record run (key ty) dt;
          run.fp <- mix run.fp m.doc_len;
          if !Trace.on then sample_versions st
        | exception e -> fail ("write: " ^ Printexc.to_string e)))
    sched;
  Trace.on := false;
  if final_check then ignore (oracle_check st reads ~expect_len:m.doc_len)

(* --- one pass: set-up, timed phase, restart ------------------------- *)

type probe = {
  cache : Seg_cache.stats option;
  pool : Lxu_storage.Buffer_pool.stats option;
  cows : int;
}

let probe st =
  let cache = with_read st Lazy_db.cache_stats in
  match st with
  | Plain p -> (
    match Lazy_db.page_stats p.db with
    | Some ps ->
      { cache; pool = Some ps.Lxu_storage.Page_store.pool; cows = ps.Lxu_storage.Page_store.cows }
    | None -> { cache; pool = None; cows = 0 })
  | Governed _ -> { cache; pool = None; cows = 0 }

type outcome = {
  setup_s : (float * float) list;
  loaded : int;  (** segments of one bulk load *)
  group_s : (float * float) list list;  (** per set-up, per group *)
  run : run;
  recover_s : (float * float) list;
  doc_len : int;
  segments : int;
  index_bytes : int;
  disk_bytes : int;
  before : probe;
  after : probe;
  ops : int;
}

(* Reads the recovered state of a crash image the way [Lazy_db.recover]
   does, one layer call at a time, so the traced run can split restart
   time into snapshot load and WAL replay. *)
let traced_recover ~paged dir =
  let pstore =
    if paged then
      Some
        (Lxu_storage.Page_store.open_existing
           ~device:(Lxu_storage.Sim_file.open_path ~append:true (Filename.concat dir "pages"))
           ())
    else None
  in
  let base =
    Trace.span "recovery.snapshot_load" (fun () ->
        Lxu_storage.Recovery.read_snapshot ?pstore ~path:(Lxu_storage.Wal_store.snapshot_path dir) ())
  in
  let wal = read_file (Lxu_storage.Wal_store.wal_path dir) in
  let log, report =
    Trace.span "recovery.replay" (fun () -> Lxu_storage.Recovery.recover_bytes ?pstore ~base wal)
  in
  layer.replayed <- layer.replayed + report.Lxu_storage.Recovery.records_applied;
  (log, pstore)

let pass name p ~edits ~trace =
  let paged = name = "paged_beyond_ram" in
  let dir k = Filename.concat !work (Printf.sprintf "%s-%d" name k) in
  let setups = if trace then 1 else p.setups in
  let rec build k acc_t acc_g =
    settle ();
    calibrate_n 4;
    let spent = !kernel_spent in
    let (st, g), dt = timed (fun () -> setup name ~edits ~dir:(dir k)) in
    let dt = dt -. (!kernel_spent -. spent) in
    let acc_t = (now (), dt) :: acc_t in
    if k = setups then begin
      calibrate_n 4;
      (st, acc_t, g :: acc_g)
    end
    else begin
      close st;
      rm_rf (dir k);
      build (k + 1) acc_t (g :: acc_g)
    end
  in
  let t_setup = now () in
  let st, setup_s, group_s = build 1 [] [] in
  let t_run = now () in
  let m = make_model (with_live st Lazy_db.text) in
  let rng = Rng.create !seed in
  let reads = reads_of_workload name in
  let run = new_run () in
  let before = probe st in
  settle ();
  let cycles = p.cycles in
  (match name with
  | "xmark_read" ->
    (* Every timed read is checked against the oracle's answer for
       the unchanged document. *)
    execute st run m rng
      (schedule rng ~cycles ~reads ~writes:[])
      ~trace ~reads ~check_at:[ 0 ] ~final_check:false ~maintain_every:0 ~verify_each:true;
    (* The in-memory write path, after every read: reads above saw
       only the pristine document. *)
    settle ();
    execute st run m rng
      (schedule rng ~cycles:p.tail ~reads:[] ~writes:p.writes)
      ~trace ~reads ~check_at:[] ~final_check:true ~maintain_every:0 ~verify_each:false
  | _ ->
    let sched = schedule rng ~cycles ~reads ~writes:p.writes in
    execute st run m rng sched ~trace ~reads
      ~check_at:[ Array.length sched / 2 ]
      ~final_check:true ~maintain_every:p.maintain_every ~verify_each:false);
  let t_restart = now () in
  let after = probe st in
  let ops = Hashtbl.fold (fun _ n acc -> acc + n) run.counts 0 in
  let segments, index_bytes, live_text =
    with_live st (fun db -> (Lazy_db.segment_count db, Lazy_db.size_bytes db, Lazy_db.text db))
  in
  (* Restart: every acknowledged write must survive.  Durable stores
     restart from a byte copy of their directory taken without close;
     the in-memory store restarts from its saved snapshot. *)
  let crash = Filename.concat !work (name ^ "-crash") in
  let restored = Filename.concat !work (name ^ "-restored") in
  let disk_bytes =
    match durable_dir st with
    | Some d ->
      copy_dir d crash;
      dir_bytes d
    | None ->
      with_live st (fun db -> Lazy_db.save db crash);
      (Unix.stat crash).Unix.st_size
  in
  let recover_once ~trace =
    match durable_dir st with
    | Some _ ->
      copy_dir crash restored;
      settle ();
      calibrate_n 8;
      Trace.on := trace;
      let text, dt =
        if trace then begin
          let (log, pstore), dt =
            timed (fun () -> Trace.span "op.recover" (fun () -> traced_recover ~paged restored))
          in
          let text = Ul.materialize log in
          Option.iter Lxu_storage.Page_store.close pstore;
          (text, dt)
        end
        else begin
          let (db, _), dt =
            timed (fun () ->
                Lazy_db.recover ~domains:1 ?storage:(if paged then Some `Paged else None) restored)
          in
          let text = Lazy_db.text db in
          Lazy_db.close db;
          (text, dt)
        end
      in
      Trace.on := false;
      rm_rf restored;
      (text, dt)
    | None ->
      settle ();
      calibrate_n 8;
      let db, dt = timed (fun () -> Lazy_db.load ~domains:1 crash) in
      (Lazy_db.text db, dt)
  in
  let recover_s =
    List.init p.recovers (fun i ->
        let trace = trace && i mod 2 = 0 in
        let text, dt = recover_once ~trace in
        incr attempted;
        if text <> live_text then fail "restart lost acknowledged writes";
        record run (if trace then "traced.recover" else "recover") dt;
        (now (), dt))
    |> List.filteri (fun i _ -> not (trace && i mod 2 = 0))
  in
  calibrate_n 8;
  Printf.printf "%s pass: set-up %.1f s, timed phase %.1f s, restart %.1f s\n%!"
    (if trace then "traced" else "untraced") (t_run -. t_setup) (t_restart -. t_run)
    (now () -. t_restart);
  close st;
  rm_rf crash;
  for k = 1 to setups do
    rm_rf (dir k)
  done;
  {
    setup_s; loaded = List.length edits; group_s; run; recover_s; doc_len = String.length live_text; segments; index_bytes;
    disk_bytes; before; after; ops;
  }

(* --- reporting ------------------------------------------------------- *)

let op_types = [ "query"; "count"; "path"; "update"; "batch"; "recover" ]
let samples o ty = Option.value (Hashtbl.find_opt o.run.lat ty) ~default:[]
let lat o ty = List.map snd (samples o ty)
let n_of o ty = Option.value (Hashtbl.find_opt o.run.counts ty) ~default:0
let ms x = x *. 1000.0
let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float a) (float b)

let digest name o =
  Printf.sprintf "digest %s seed=%d: query=%d count=%d path=%d update=%d batch=%d doc_len=%d segments=%d fp=%d"
    name !seed (n_of o "query") (n_of o "count") (n_of o "path") (n_of o "update") (n_of o "batch")
    o.doc_len o.segments o.run.fp

(* (name, unit, value, sample count); [scale] maps timed samples to
   seconds (raw or normalized). *)
let end_to_end o ~scale =
  let q ty x = ms (quantile (scale (samples o ty)) x) in
  [
    ("setup_s", "s", median (scale o.setup_s), List.length o.setup_s);
    ( "ingest_segments_per_s",
      "1/s",
      (* groups differ (the first carries the document skeleton), so
         each group's time is its median over the set-ups *)
      (let per_setup = List.map (fun g -> Array.of_list (scale g)) o.group_s in
       let groups = Array.length (List.hd per_setup) in
       float o.loaded
       /. List.fold_left ( +. ) 0.0
            (List.init groups (fun i -> median (List.map (fun a -> a.(i)) per_setup)))),
      List.length (List.concat o.group_s) );
    ("query_p50_ms", "ms", q "query" 0.5, n_of o "query");
    ("query_p95_ms", "ms", q "query" 0.95, n_of o "query");
    ("count_p50_ms", "ms", q "count" 0.5, n_of o "count");
    ("path_p50_ms", "ms", q "path" 0.5, n_of o "path");
    ("path_p95_ms", "ms", q "path" 0.95, n_of o "path");
    ("update_p50_ms", "ms", q "update" 0.5, n_of o "update");
    ("update_p95_ms", "ms", q "update" 0.95, n_of o "update");
    ("batch_segments_per_s", "1/s", 64.0 /. median (scale (samples o "batch")), n_of o "batch");
    ("recover_s", "s", median (scale o.recover_s), List.length o.recover_s);
    ("index_bytes_per_doc_byte", "ratio", fdiv o.index_bytes o.doc_len, 1);
    ("disk_bytes_per_doc_byte", "ratio", fdiv o.disk_bytes o.doc_len, 1);
    ( "heap_peak_mb",
      "MB",
      float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0,
      1 );
  ]

let per_layer o =
  let tot = Trace.totals () in
  let calls n = match Hashtbl.find_opt tot n with Some (c, _, _) -> c | None -> 0 in
  let mean n = match Hashtbl.find_opt tot n with Some (c, t, _) -> div t (float c) | None -> 0.0 in
  let total n = match Hashtbl.find_opt tot n with Some (_, t, _) -> t | None -> 0.0 in
  let self n = match Hashtbl.find_opt tot n with Some (c, _, s) -> div s (float c) | None -> 0.0 in
  let job j = Option.value (Hashtbl.find_opt layer.jobs j) ~default:(0, 0.0) in
  let job_ms j = let n, s = job j in ms (div s (float n)) in
  let cache f =
    match (o.before.cache, o.after.cache) with
    | Some b, Some a -> f a - f b
    | _ -> 0
  in
  let pool f =
    match (o.before.pool, o.after.pool) with Some b, Some a -> f a - f b | _ -> 0
  in
  let open Seg_cache in
  let open Lxu_storage.Buffer_pool in
  let writes = o.run.writes in
  (* Mean op time, traced over untraced, pooled over op types by
     untraced op count. *)
  let overhead =
    let ratio = ref 0.0 and weight = ref 0.0 in
    List.iter
      (fun ty ->
        let u = lat o ty and t = lat o ("traced." ^ ty) in
        if u <> [] && t <> [] then begin
          let mean l = List.fold_left ( +. ) 0.0 l /. float (List.length l) in
          let w = float (List.length u) *. mean u in
          ratio := !ratio +. (w *. (mean t /. mean u));
          weight := !weight +. w
        end)
      op_types;
    div !ratio !weight -. 1.0
  in
  [
    ("lazy_join.run_ms", "ms", ms (mean "lazy_join.run"));
    ("lazy_join.global_pairs_ms", "ms", ms (mean "lazy_join.global_pairs"));
    ("lazy_join.elements_fetched_per_pair", "ratio", fdiv layer.fetched layer.pairs);
    ("lazy_join.segments_skipped_frac", "ratio", fdiv layer.skipped layer.a_segments);
    ("plan.choose_ms", "ms", ms (mean "plan.choose"));
    ( "path_query.exec_ms",
      "ms",
      if calls "path_query.eval" = 0 then 0.0
      else ms (mean "path_query.eval" -. mean "plan.choose") );
    ("seg_cache.hit_rate", "ratio", fdiv (cache (fun s -> s.hits)) (cache (fun s -> s.lookups)));
    ("seg_cache.evictions_per_op", "count", fdiv (cache (fun s -> s.evictions)) o.ops);
    ("seg_cache.invalidations_per_update", "count", fdiv (cache (fun s -> s.invalidations)) writes);
    ("parser.parse_ms", "ms", ms (mean "parser.parse"));
    ("lazy_db.insert_ms", "ms", ms (mean "lazy_db.insert"));
    ("lazy_db.remove_ms", "ms", ms (mean "lazy_db.remove"));
    ("lazy_db.insert_many_ms_per_segment", "ms", ms (mean "lazy_db.insert_many") /. 64.0);
    ("wal_store.commit_ms", "ms", ms (self "lazy_db.batch"));
    ("wal.bytes_per_update", "B", fdiv layer.wal_bytes layer.updates);
    ("shared_db.publish_ms", "ms", ms (self "governor.write"));
    ("shared_db.versions_max", "count", float layer.versions_max);
    ("maintainer.tick_ms", "ms", ms (mean "maintainer.tick"));
    ("maintainer.pack_ms", "ms", job_ms "pack");
    ("maintainer.checkpoint_ms", "ms", job_ms "checkpoint");
    ("maintainer.jobs.pack", "count", float (fst (job "pack")));
    ("maintainer.jobs.checkpoint", "count", float (fst (job "checkpoint")));
    ("maintainer.jobs.merge", "count", float (fst (job "merge")));
    ("maintainer.jobs.idle", "count", float (fst (job "idle")));
    ("update_log.segments_at_read", "count", fdiv layer.seg_at_read layer.reads);
    ("recovery.snapshot_load_s", "s", mean "recovery.snapshot_load");
    ("recovery.replay_ms_per_record", "ms", ms (div (total "recovery.replay") (float layer.replayed)));
    ("buffer_pool.hit_rate", "ratio", fdiv (pool (fun s -> s.hits)) (pool (fun s -> s.lookups)));
    ("buffer_pool.misses_per_op", "count", fdiv (pool (fun s -> s.misses)) o.ops);
    ("buffer_pool.evictions_per_op", "count", fdiv (pool (fun s -> s.evictions)) o.ops);
    ("buffer_pool.writebacks_per_op", "count", fdiv (pool (fun s -> s.writebacks)) o.ops);
    ("page_store.cows_per_update", "count", fdiv (o.after.cows - o.before.cows) writes);
    ("page_store.checkpoint_ms", "ms", ms (mean "page_store.checkpoint"));
    ("trace.overhead_frac", "ratio", overhead);
  ]

let json_result metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!failed = 0) (max 1 !attempted) !failed;
  List.iteri
    (fun i (name, unit, v) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" (if i > 0 then ", " else "")
        name v unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Per op type: untraced mean, traced mean, and the self time of every
   span under that op type — the baseline explanation of where the
   time goes. *)
let layer_table o =
  let mean_ms l = ms (div (List.fold_left ( +. ) 0.0 l) (float (List.length l))) in
  Printf.printf "\n%-8s %8s %12s %12s %9s\n" "op" "n" "untraced ms" "traced ms" "overhead";
  List.iter
    (fun ty ->
      let u = lat o ty and t = lat o ("traced." ^ ty) in
      if t <> [] then
        Printf.printf "%-8s %8d %12.4f %12.4f %8.1f%%\n" ty (List.length t) (mean_ms u) (mean_ms t)
          (100.0 *. div (mean_ms t -. mean_ms u) (mean_ms u)))
    op_types;
  Printf.printf "\n%-10s %-28s %12s %8s\n" "op" "layer span (self time)" "ms per op" "share";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Trace.by_root ()) [] in
  List.iter
    (fun root ->
      let mine = List.filter (fun ((r, _), _) -> r = root) rows in
      let ops = List.fold_left (fun acc ((_, s), (c, _, _)) -> if s = root then acc + c else acc) 0 mine in
      let total = List.fold_left (fun acc (_, (_, _, sf)) -> acc +. sf) 0.0 mine in
      List.iter
        (fun ((_, s), (_, _, sf)) ->
          Printf.printf "%-10s %-28s %12.4f %7.1f%%\n" root s (ms (div sf (float ops)))
            (100.0 *. div sf total))
        (List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a) mine))
    (List.sort_uniq compare (List.map (fun ((r, _), _) -> r) rows))

let () =
  (* The minor-heap sizing of bench/main.ml: 64 MB, so minor
     collections do not land mid-operation. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  (try parse_args ()
   with Arg.Bad msg ->
     prerr_endline msg;
     exit 2);
  let name = !workload in
  if not (List.mem name [ "xmark_read"; "churn_durable"; "paged_beyond_ram" ]) then begin
    prerr_endline ("unknown workload " ^ name);
    exit 2
  end;
  (* Budgets are set in this process, before any store exists. *)
  if name = "paged_beyond_ram" then begin
    Unix.putenv "LXU_POOL_BYTES" (string_of_int pool_budget);
    Unix.putenv "LXU_CACHE_BYTES" (string_of_int pool_budget)
  end;
  let p = params name !seconds in
  let edits = xmark_doc ~persons:p.persons ~segments:p.segments in
  mkdir_p !work;
  Printf.printf "workload %s: %d-byte document, %d set-up edits, %d cycles, seed %d\n%!" name
    (List.fold_left (fun acc (_, t) -> acc + String.length t) 0 edits)
    (List.length edits) p.cycles !seed;
  let o = pass name p ~edits ~trace:!traced in
  print_endline (digest name o);
  let metrics =
    if not !traced then begin
      let raw = end_to_end o ~scale:(List.map snd) in
      let e2e = end_to_end o ~scale:normalize in
      let kernel = List.map snd !host_samples in
      Printf.printf "host kernel: median %.4f ms, reference %.4f ms, %d runs\n"
        (ms (median kernel)) (ms kernel_ref) (List.length kernel);
      Printf.printf "\n%-28s %14s %14s %-6s %8s\n" "metric" "raw" "normalized" "unit" "samples";
      List.iter2
        (fun (n, u, r, c) (_, _, v, _) -> Printf.printf "%-28s %14.4f %14.4f %-6s %8d\n" n r v u c)
        raw e2e;
      let show name l =
        Printf.printf "%s s: %s\n" name
          (String.concat " "
             (List.map2 (fun (_, r) v -> Printf.sprintf "%.3f/%.3f" r v) (List.rev l) (List.rev (normalize l))))
      in
      show "set-ups (raw/normalized)" o.setup_s;
      show "restarts (raw/normalized)" o.recover_s;
      List.map (fun (n, u, v, _) -> (n, u, v)) e2e
    end
    else begin
      let spans_out = !work ^ "-spans.tsv" in
      Trace.write spans_out;
      Printf.printf "spans: %d written to %s\n" !Trace.count spans_out;
      layer_table o;
      let pl = per_layer o in
      Printf.printf "\n%-36s %14s %s\n" "per-layer metric" "value" "unit";
      List.iter (fun (n, u, v) -> Printf.printf "%-36s %14.4f %s\n" n v u) pl;
      pl
    end
  in
  List.iter (fun (n, _, v) -> if not (Float.is_finite v) then fail (n ^ " is not finite")) metrics;
  Printf.printf "failed_ops_frac %.6f (%d failed of %d attempted; %d timed ops)\n"
    (fdiv !failed !attempted) !failed !attempted o.ops;
  List.iter (fun e -> Printf.printf "failure: %s\n" e) (List.rev !errors);
  print_endline
    (json_result (List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics))
