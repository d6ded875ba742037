(** Resource governance over a {!Shared_db}: bounded admission,
    per-operation deadlines, cooperative cancellation, and graceful
    overload shedding.

    The paper makes updates cheap but leaves query cost unbounded — a
    single structural join over a hot tag list can monopolize the
    system.  The governor closes that gap for the live traffic path:

    Admission bounds {e work in flight}, not access: since
    {!Shared_db} went MVCC, readers run lock-free against pinned
    snapshots and only writers serialize among themselves, so the
    governor's slots ration CPU and memory, never mutual exclusion.

    {ul
    {- {b Bounded readers}: at most [max_readers] queries in flight;
       an arriving read past the bound is {e shed} immediately with
       {!rejection.Overloaded} instead of queueing — saturation
       degrades into fast typed errors, callers retry with backoff.
       An admitted reader holds its slot while it queries its pinned
       snapshot; it never waits on — or delays — a writer.}
    {- {b Bounded writer queue}: at most [max_writer_queue] updates
       admitted (queued or running); beyond that, [Overloaded].
       Admitted writers serialize on the {!Shared_db} writer lock as
       before — updates are tiny under the lazy scheme, so the queue
       drains quickly.}
    {- {b Deadlines and cancellation}: every operation takes an
       optional per-op deadline (or the config default) and an
       optional {!Lxu_util.Deadline.Cancel.t}; both are folded into a
       guard that the join loops check cooperatively, so a runaway
       query stops within one loop iteration and returns
       {!rejection.Timed_out} or {!rejection.Cancelled}.  A token
       already fired (or a deadline already passed) rejects {e at
       admission}, before touching any lock.}}

    Failures are values, never strings or exceptions
    ({!rejection}); {!stats} counts admissions, completions and every
    shed class, so overload behaviour is observable. *)

type rejection =
  | Overloaded of { op : [ `Read | `Write ]; in_flight : int; limit : int }
      (** shed at admission: the in-flight bound was reached *)
  | Timed_out of { after_s : float }
      (** the deadline passed — at admission ([after_s = 0.]) or
          cooperatively inside the operation *)
  | Cancelled of string  (** the token fired, with its reason *)

val rejection_to_string : rejection -> string

type config = {
  max_readers : int;  (** in-flight read bound (shed past it) *)
  max_writer_queue : int;  (** admitted-writer bound (queued + running) *)
  default_deadline_s : float option;
      (** deadline applied when an operation passes none *)
}

val default_config : config
(** [{ max_readers = 64; max_writer_queue = 256;
      default_deadline_s = None }] *)

type stats = {
  admitted_reads : int;
  admitted_writes : int;
  completed_reads : int;
  completed_writes : int;
  rejected_overload : int;
  rejected_timeout : int;
  rejected_cancel : int;
      (** every rejection is counted in exactly one bucket, whether it
          happened at admission or mid-flight *)
  failed : int;
      (** callbacks that escaped with a foreign exception (anything
          other than the guard's cancellation) — the exception is
          re-raised to the caller after the admission slot is
          released.  Accounting is exact: every admitted operation
          ends in exactly one of completed, [rejected_timeout],
          [rejected_cancel], or [failed]. *)
}

type t

val create :
  ?config:config ->
  ?index_attributes:bool ->
  ?domains:int ->
  ?durability:[ `None | `Wal of string ] ->
  unit ->
  t
(** A fresh governed database; [index_attributes] and [durability] are
    {!Shared_db.create}'s.  [domains] is accepted and ignored, as in
    {!Lazy_db.create}: it stays only because
    [perfbench/perfbench.ml] passes it. *)

val wrap : ?config:config -> Shared_db.t -> t
(** Governs an existing shared database.  Operations that bypass the
    governor (direct {!Shared_db} calls) are invisible to its bounds
    and stats. *)

val shared : t -> Shared_db.t
val config : t -> config
val stats : t -> stats

val in_flight : t -> int * int
(** [(readers, writers)] currently admitted — the maintenance
    scheduler's idleness probe: background work proceeds only when the
    gauges say the system has spare capacity, and is shed by the
    normal admission bound otherwise. *)

val read :
  t ->
  ?deadline_s:float ->
  ?cancel:Lxu_util.Deadline.Cancel.t ->
  (Lxu_util.Deadline.guard option -> Lazy_db.t -> 'a) ->
  ('a, rejection) result
(** Admission-bounded snapshot query: the database handed to the
    callback is the newest published snapshot, pinned for the call
    (see {!Shared_db.read}).  The callback receives the
    operation's guard; pass it to {!Lazy_db.query}/{!Lazy_db.count}/
    {!Path_query.eval} (or check it yourself in long loops) so
    deadlines and cancels are observed {e during} the work, not only
    at its boundaries.  A callback that ignores the guard is still
    bounded at admission and completion. *)

val write :
  t ->
  ?deadline_s:float ->
  ?cancel:Lxu_util.Deadline.Cancel.t ->
  (Lxu_util.Deadline.guard option -> Lazy_db.t -> 'a) ->
  ('a, rejection) result
(** Admission-bounded exclusive update.  A write rejected mid-flight
    may have partially applied — compose multi-step updates inside one
    callback and only use sub-operations that are atomic at the
    {!Lazy_db} level, or avoid deadlines on writers (the default). *)

val insert : t -> ?cancel:Lxu_util.Deadline.Cancel.t -> gp:int -> string -> (unit, rejection) result
(** Governed {!Lazy_db.insert}: bounded by the writer queue and the
    token (checked at admission), never by a deadline — an admitted
    update always runs to completion, so rejections are all-or-
    nothing.  Concurrent inserts serialize on the {!Shared_db}
    writer lock, each its own commit. *)

val insert_many :
  t -> ?cancel:Lxu_util.Deadline.Cancel.t -> (int * string) list -> (unit, rejection) result
(** Governed {!Lazy_db.insert_many}: one admission slot, one write-
    lock hold and one WAL flush for the whole batch.  A caller with a
    batch in hand should prefer this over feeding {!insert} in a loop. *)

val remove :
  t -> ?cancel:Lxu_util.Deadline.Cancel.t -> gp:int -> len:int -> unit -> (unit, rejection) result

val count :
  t ->
  ?deadline_s:float ->
  ?cancel:Lxu_util.Deadline.Cancel.t ->
  ?axis:Lxu_util.Axis.t ->
  anc:string ->
  desc:string ->
  unit ->
  (int, rejection) result
(** Governed {!Lazy_db.count}: the guard is threaded into Lazy-Join's
    loops, so cancellation lands without waiting for the join — and a
    pre-fired token rejects before the read lock is even requested. *)

val path_count :
  t ->
  ?deadline_s:float ->
  ?cancel:Lxu_util.Deadline.Cancel.t ->
  string ->
  (int, rejection) result
(** Governed {!Path_query.count}, guard threaded through every step. *)

val retry :
  ?attempts:int ->
  ?base_ms:float ->
  ?factor:float ->
  ?max_ms:float ->
  ?sleep:(float -> unit) ->
  rng:Lxu_workload.Rng.t ->
  (unit -> ('a, rejection) result) ->
  ('a, rejection) result
(** [retry ~rng f] runs [f] until it succeeds or [attempts] (default
    5) tries are spent, sleeping between tries with jittered
    exponential backoff.  Only [Overloaded] is retried — [Timed_out]
    and [Cancelled] reflect caller intent and return immediately, as
    does the final error.

    The schedule: before retry [k] (1-based), the delay is
    [u * min max_ms (base_ms *. factor ** (k - 1))] milliseconds with
    [u] drawn uniformly from [0.5, 1.0) via [rng] — full-jitter's
    decorrelation with at most a halving of the cap.  Defaults:
    [base_ms = 1.], [factor = 2.], [max_ms = 1000.].  [sleep] (default
    [Unix.sleepf] of milliseconds) is injectable so tests can capture
    the schedule instead of waiting it out. *)
