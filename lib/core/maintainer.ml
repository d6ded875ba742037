open Lxu_seglog

type config = {
  pack_min_segments : int;
  pack_min_depth : int;
  pack_tag_skew : int;
  checkpoint_wal_bytes : int;
  merge_dirty_tags : int;
  backup_every : int;
  backup_dir : string option;
}

let default_config =
  {
    pack_min_segments = 8;
    pack_min_depth = 4;
    pack_tag_skew = 0;
    checkpoint_wal_bytes = 1 lsl 20;
    merge_dirty_tags = 16;
    backup_every = 0;
    backup_dir = None;
  }

type job =
  | Pack of { gp : int; len : int; segments : int; depth : int }
  | Merge_tag_runs of int
  | Checkpoint of int
  | Backup of { dir : string; lsn : int }

type outcome = Ran of job | Idle | Busy | Shed of Governor.rejection

let job_to_string = function
  | Pack { gp; len; segments; depth } ->
    Printf.sprintf "pack gp=%d len=%d segments=%d depth=%d" gp len segments depth
  | Merge_tag_runs n -> Printf.sprintf "merge %d dirty tag lists" n
  | Checkpoint bytes -> Printf.sprintf "checkpoint (wal was %d bytes)" bytes
  | Backup { dir; lsn } -> Printf.sprintf "backup to %s through lsn %d" dir lsn

let outcome_to_string = function
  | Ran j -> "ran: " ^ job_to_string j
  | Idle -> "idle"
  | Busy -> "busy"
  | Shed r -> "shed: " ^ Governor.rejection_to_string r

type target = Governed of Governor.t | Direct of Lazy_db.t

type stats = {
  ticks : int;
  packs : int;
  merges : int;
  checkpoints : int;
  backups : int;
  idle : int;
  busy : int;
  shed : int;
}

type t = {
  cfg : config;
  target : target;
  ticks : int Atomic.t;
  packs : int Atomic.t;
  merges : int Atomic.t;
  checkpoints : int Atomic.t;
  backups : int Atomic.t;
  idle : int Atomic.t;
  busy : int Atomic.t;
  shed : int Atomic.t;
  last_backup_tick : int Atomic.t;
}

(* The largest extent one pack takes: it keeps each step, and its
   writer-lock hold, small. *)
let max_pack_bytes = 1 lsl 20

let check_config cfg =
  if cfg.pack_min_segments < 1 then invalid_arg "Maintainer: pack_min_segments < 1";
  if cfg.pack_min_depth < 1 then invalid_arg "Maintainer: pack_min_depth < 1";
  if cfg.pack_tag_skew < 0 then invalid_arg "Maintainer: pack_tag_skew < 0";
  if cfg.backup_every < 0 then invalid_arg "Maintainer: backup_every < 0"

let make cfg target =
  check_config cfg;
  {
    cfg;
    target;
    ticks = Atomic.make 0;
    packs = Atomic.make 0;
    merges = Atomic.make 0;
    checkpoints = Atomic.make 0;
    backups = Atomic.make 0;
    idle = Atomic.make 0;
    busy = Atomic.make 0;
    shed = Atomic.make 0;
    last_backup_tick = Atomic.make 0;
  }

let of_governor ?(config = default_config) gov = make config (Governed gov)
let of_db ?(config = default_config) db = make config (Direct db)

let stats t =
  {
    ticks = Atomic.get t.ticks;
    packs = Atomic.get t.packs;
    merges = Atomic.get t.merges;
    checkpoints = Atomic.get t.checkpoints;
    backups = Atomic.get t.backups;
    idle = Atomic.get t.idle;
    busy = Atomic.get t.busy;
    shed = Atomic.get t.shed;
  }

(* One maintenance step on the quiescent live database (under the
   writer lock in governed mode), most urgent debt first:

   1. rolling checkpoint once the WAL outgrows its budget — bounds
      recovery time and truncates the log (snapshot-durable-then-
      truncate, see Wal_store.checkpoint);
   2. incremental pack of the single most fragmented top-level subtree
      over the thresholds — one small epoch-committing, WAL-logged
      write per step, so a crash at any boundary recovers cleanly and
      pinned readers keep their snapshots;
   3. off-path merge of dirty tag-list pending runs (LS debt);
   4. scheduled backup shipping.

   Every step is itself crash-safe, so the scheduler needs no
   recovery logic of its own: whatever step a crash interrupts either
   committed (and replays) or never happened. *)
let step t db =
  let cfg = t.cfg in
  let wal = Option.value ~default:0 (Lazy_db.wal_bytes db) in
  if wal >= cfg.checkpoint_wal_bytes then begin
    Lazy_db.checkpoint db;
    Some (Checkpoint wal)
  end
  else
    let log = Option.get (Lazy_db.log db) in
    let fs = Update_log.frag_stats log in
    (* Tag skew: one tag scattered over that many segments degrades
       its structural joins even when overall fragmentation is mild,
       so it lowers the bar to "any multi-segment subtree". *)
    let skew =
      cfg.pack_tag_skew > 0 && fs.Update_log.max_tag_segments >= cfg.pack_tag_skew
    in
    (* O(1) gate before the O(segments) subtree scan: no subtree can
       beat a bound the whole log does not reach. *)
    let pick =
      if
        skew
        || fs.Update_log.live_segments > cfg.pack_min_segments
        || fs.Update_log.er_depth >= cfg.pack_min_depth
      then
        Update_log.fragmented_subtrees log
        |> List.find_opt (fun (s : Update_log.subtree_frag) ->
               s.Update_log.segments > 1
               && s.Update_log.len <= max_pack_bytes
               && (skew
                  || s.Update_log.segments > cfg.pack_min_segments
                  || s.Update_log.depth >= cfg.pack_min_depth))
      else None
    in
    match pick with
    | Some s ->
      Lazy_db.pack_subtree db ~gp:s.Update_log.gp ~len:s.Update_log.len;
      Some
        (Pack
           {
             gp = s.Update_log.gp;
             len = s.Update_log.len;
             segments = s.Update_log.segments;
             depth = s.Update_log.depth;
           })
    | None ->
      if cfg.merge_dirty_tags > 0 && fs.Update_log.dirty_tags >= cfg.merge_dirty_tags
      then begin
        Update_log.prepare_for_query log;
        Some (Merge_tag_runs fs.Update_log.dirty_tags)
      end
      else (
        match cfg.backup_dir with
        | Some dir
          when cfg.backup_every > 0
               && Lazy_db.wal_dir db <> None
               && Atomic.get t.ticks - Atomic.get t.last_backup_tick >= cfg.backup_every
          ->
          let lsn = Lazy_db.backup db ~dir in
          Atomic.set t.last_backup_tick (Atomic.get t.ticks);
          Some (Backup { dir; lsn })
        | _ -> None)

let record t = function
  | Ran (Pack _) -> Atomic.incr t.packs
  | Ran (Merge_tag_runs _) -> Atomic.incr t.merges
  | Ran (Checkpoint _) -> Atomic.incr t.checkpoints
  | Ran (Backup _) -> Atomic.incr t.backups
  | Idle -> Atomic.incr t.idle
  | Busy -> Atomic.incr t.busy
  | Shed _ -> Atomic.incr t.shed

let tick t =
  Atomic.incr t.ticks;
  let out =
    match t.target with
    | Direct db -> ( match step t db with Some j -> Ran j | None -> Idle)
    | Governed gov -> (
      (* Politeness before admission: with foreground writers in
         flight, don't even queue — the whole point is never competing
         with paying traffic.  The admission bound below still sheds
         the race where a writer arrives right after the probe. *)
      let _, writers = Governor.in_flight gov in
      if writers > 0 then Busy
      else
        match Governor.write gov (fun _guard db -> step t db) with
        | Error r -> Shed r
        | Ok (Some j) -> Ran j
        | Ok None -> Idle)
  in
  record t out;
  out

let rec run_until_idle ?(max_steps = max_int) t =
  if max_steps <= 0 then 0
  else
    match tick t with
    | Ran _ -> 1 + run_until_idle ~max_steps:(max_steps - 1) t
    | Idle | Busy | Shed _ -> 0
