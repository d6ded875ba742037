module Deadline = Lxu_util.Deadline

type rejection =
  | Overloaded of { op : [ `Read | `Write ]; in_flight : int; limit : int }
  | Timed_out of { after_s : float }
  | Cancelled of string

let rejection_to_string = function
  | Overloaded { op; in_flight; limit } ->
    Printf.sprintf "overloaded: %d %s in flight (limit %d)" in_flight
      (match op with `Read -> "reads" | `Write -> "writes")
      limit
  | Timed_out { after_s } -> Printf.sprintf "timed out after %.3fs" after_s
  | Cancelled reason -> Printf.sprintf "cancelled: %s" reason

type config = {
  max_readers : int;
  max_writer_queue : int;
  default_deadline_s : float option;
}

let default_config = { max_readers = 64; max_writer_queue = 256; default_deadline_s = None }

type stats = {
  admitted_reads : int;
  admitted_writes : int;
  completed_reads : int;
  completed_writes : int;
  rejected_overload : int;
  rejected_timeout : int;
  rejected_cancel : int;
  failed : int;
}

type t = {
  sdb : Shared_db.t;
  cfg : config;
  (* In-flight gauges.  Readers/writers from many domains race on
     admission; plain mutable ints under a mutex keep the bound exact
     (an atomic increment-then-check could overshoot transiently and
     shed a request that actually fit). *)
  gate : Mutex.t;
  mutable readers : int;
  mutable writers : int;
  admitted_reads : int Atomic.t;
  admitted_writes : int Atomic.t;
  completed_reads : int Atomic.t;
  completed_writes : int Atomic.t;
  rejected_overload : int Atomic.t;
  rejected_timeout : int Atomic.t;
  rejected_cancel : int Atomic.t;
  failed : int Atomic.t;
}

let wrap ?(config = default_config) sdb =
  if config.max_readers < 1 then invalid_arg "Governor.wrap: max_readers < 1";
  if config.max_writer_queue < 1 then invalid_arg "Governor.wrap: max_writer_queue < 1";
  (match config.default_deadline_s with
  | Some d when d <= 0. -> invalid_arg "Governor.wrap: default_deadline_s <= 0"
  | _ -> ());
  {
    sdb;
    cfg = config;
    gate = Mutex.create ();
    readers = 0;
    writers = 0;
    admitted_reads = Atomic.make 0;
    admitted_writes = Atomic.make 0;
    completed_reads = Atomic.make 0;
    completed_writes = Atomic.make 0;
    rejected_overload = Atomic.make 0;
    rejected_timeout = Atomic.make 0;
    rejected_cancel = Atomic.make 0;
    failed = Atomic.make 0;
  }

let create ?config ?index_attributes ?domains:_ ?durability () =
  wrap ?config (Shared_db.create ?index_attributes ?durability ())

let shared t = t.sdb
let config t = t.cfg

let in_flight t =
  Mutex.lock t.gate;
  let r = t.readers and w = t.writers in
  Mutex.unlock t.gate;
  (r, w)

let stats t =
  {
    admitted_reads = Atomic.get t.admitted_reads;
    admitted_writes = Atomic.get t.admitted_writes;
    completed_reads = Atomic.get t.completed_reads;
    completed_writes = Atomic.get t.completed_writes;
    rejected_overload = Atomic.get t.rejected_overload;
    rejected_timeout = Atomic.get t.rejected_timeout;
    rejected_cancel = Atomic.get t.rejected_cancel;
    failed = Atomic.get t.failed;
  }

let reject t r =
  (match r with
  | Overloaded _ -> Atomic.incr t.rejected_overload
  | Timed_out _ -> Atomic.incr t.rejected_timeout
  | Cancelled _ -> Atomic.incr t.rejected_cancel);
  Error r

let of_cancel ~start = function
  | Deadline.Cancel.Timeout -> Timed_out { after_s = Deadline.now () -. start }
  | Deadline.Cancel.User reason -> Cancelled reason

(* Typed pre-admission checks: a fired token or an expired deadline
   rejects before any lock or gauge is touched, so dead requests cost
   nothing and hold nothing. *)
let pre_admission ~cancel ~deadline =
  match Option.bind cancel Deadline.Cancel.reason with
  | Some (Deadline.Cancel.User reason) -> Some (Cancelled reason)
  | Some Deadline.Cancel.Timeout -> Some (Timed_out { after_s = 0. })
  | None ->
    (match deadline with
    | Some d when Deadline.expired d -> Some (Timed_out { after_s = 0. })
    | _ -> None)

let resolve_deadline t deadline_s =
  match deadline_s with
  | Some s -> Some (Deadline.after s)
  | None -> Option.map Deadline.after t.cfg.default_deadline_s

(* Admission for one operation class: bump the gauge if under the
   bound, shed with the observed occupancy otherwise.  Shedding (not
   queueing) is deliberate: the stdlib has no timed condition wait, so
   a queued request could not honour its own deadline while blocked —
   instant typed rejection keeps latency bounded and lets callers
   decide (retry with backoff, degrade, or give up). *)
let admit t ~op =
  Mutex.lock t.gate;
  let admitted, occupancy =
    match op with
    | `Read ->
      if t.readers < t.cfg.max_readers then (
        t.readers <- t.readers + 1;
        (true, t.readers))
      else (false, t.readers)
    | `Write ->
      if t.writers < t.cfg.max_writer_queue then (
        t.writers <- t.writers + 1;
        (true, t.writers))
      else (false, t.writers)
  in
  Mutex.unlock t.gate;
  if admitted then Ok ()
  else
    Error
      (Overloaded
         {
           op;
           in_flight = occupancy;
           limit = (match op with `Read -> t.cfg.max_readers | `Write -> t.cfg.max_writer_queue);
         })

let release t ~op =
  Mutex.lock t.gate;
  (match op with
  | `Read -> t.readers <- t.readers - 1
  | `Write -> t.writers <- t.writers - 1);
  Mutex.unlock t.gate

let run t ~op ?deadline_s ?cancel f =
  let deadline = resolve_deadline t deadline_s in
  match pre_admission ~cancel ~deadline with
  | Some r -> reject t r
  | None ->
    (match admit t ~op with
    | Error r -> reject t r
    | Ok () ->
      let admitted, completed, locked =
        match op with
        | `Read -> (t.admitted_reads, t.completed_reads, Shared_db.read)
        | `Write -> (t.admitted_writes, t.completed_writes, Shared_db.write)
      in
      Atomic.incr admitted;
      let start = Deadline.now () in
      let guard = Deadline.guard ?deadline ?cancel () in
      (* Every exit path — completion, cooperative cancellation, or a
         foreign exception escaping the callback (malformed path,
         parse error, ...) — must return the admission slot, or the
         gauge leaks and the operation class is eventually shed
         forever. *)
      Fun.protect
        ~finally:(fun () -> release t ~op)
        (fun () ->
          match locked t.sdb (fun db -> f guard db) with
          | v ->
            Atomic.incr completed;
            Ok v
          | exception Deadline.Cancel.Cancelled reason -> reject t (of_cancel ~start reason)
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Atomic.incr t.failed;
            Printexc.raise_with_backtrace e bt))

let read t ?deadline_s ?cancel f = run t ~op:`Read ?deadline_s ?cancel f
let write t ?deadline_s ?cancel f = run t ~op:`Write ?deadline_s ?cancel f

(* Updates are never killed mid-flight: they take the writer-queue
   bound and the admission-time token check, but no deadline is
   observed inside them, so an admitted update always completes and
   rejection is all-or-nothing. *)
let insert t ?cancel ~gp text =
  run t ~op:`Write ?cancel (fun _guard db -> Lazy_db.insert db ~gp text)

let insert_many t ?cancel edits =
  run t ~op:`Write ?cancel (fun _guard db -> Lazy_db.insert_many db edits)

let remove t ?cancel ~gp ~len () =
  run t ~op:`Write ?cancel (fun _guard db -> Lazy_db.remove db ~gp ~len)

let count t ?deadline_s ?cancel ?axis ~anc ~desc () =
  read t ?deadline_s ?cancel (fun guard db -> Lazy_db.count db ?axis ?guard ~anc ~desc ())

let path_count t ?deadline_s ?cancel path =
  read t ?deadline_s ?cancel (fun guard db -> Path_query.count ?guard db path)

let retry ?(attempts = 5) ?(base_ms = 1.) ?(factor = 2.) ?(max_ms = 1000.) ?sleep ~rng f =
  if attempts < 1 then invalid_arg "Governor.retry: attempts < 1";
  let sleep = match sleep with Some s -> s | None -> fun ms -> Unix.sleepf (ms /. 1000.) in
  (* Delay before retry k: u * min(max_ms, base_ms * factor^(k-1))
     with u uniform in [0.5, 1.0) — jittered exponential backoff, so a
     burst of shed clients decorrelates instead of re-colliding. *)
  let backoff_ms k =
    let cap = Float.min max_ms (base_ms *. (factor ** float_of_int (k - 1))) in
    let u = 0.5 +. (float_of_int (Lxu_workload.Rng.int rng 1_048_576) /. 2_097_152.) in
    cap *. u
  in
  let rec go k =
    match f () with
    | Ok _ as ok -> ok
    | Error (Overloaded _) when k < attempts ->
      sleep (backoff_ms k);
      go (k + 1)
    | Error _ as err -> err
  in
  go 1
