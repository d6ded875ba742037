(** The week-in-an-hour maintenance chaos harness.

    Three drivers around {!Lazy_xml.Maintainer}:

    {ul
    {- {!run_churn_crash} interleaves a generated churn schedule with
       maintenance ticks and kills the store (byte-level crash images
       plus injected torn/bit-flipped tails) at {e every}
       maintenance-step boundary — including all three
       checkpoint-truncation windows — asserting each recovery is
       fingerprint-identical to the never-crashed
       {!Crash_harness.Reference} at the LSN the surviving WAL prefix
       promises, and that every shipped
       backup restores to exactly the state it was taken at.}
    {- {!run_restore_sweep} proves point-in-time restore complete:
       with checkpoint truncation disabled, {e every} committed prefix
       state is reconstructed with {!Lazy_xml.Lazy_db.restore_to} and
       checked; a final checkpoint then proves the documented bound
       (pre-checkpoint LSNs fail).}
    {- {!run_churn_perf} compresses a week of churn into seconds:
       governed insert/remove bursts with measured count queries,
       either with auto-maintenance after each epoch or manual-only —
       the degradation baseline the bench compares against a freshly
       rebuilt store.}}

    Failures raise [Failure] with the seed and the generated schedule,
    so any report replays exactly. *)

val run_churn_crash : ?maint_every:int -> seed:int -> target_ops:int -> unit -> int
(** Churn + crash-at-every-maintenance-boundary differential; ticks
    the maintainer every [maint_every] (default 3) operations.
    Returns the number of recoveries performed.
    @raise Failure on any divergence. *)

val run_restore_sweep : seed:int -> target_ops:int -> unit -> int
(** Point-in-time restore completeness sweep.  Returns the number of
    prefix states checked.
    @raise Failure on any divergence. *)

type churn_perf = {
  latencies_ms : float array;  (** per-query, in schedule order *)
  queries : int;
  segments_end : int;  (** live segments at end of run *)
  er_depth_end : int;  (** deepest ER chain at end of run *)
  jobs_run : int;  (** maintenance jobs executed *)
  shed : int;  (** maintenance ticks shed by admission *)
}

val p99 : float array -> float
(** 99th percentile (nearest-rank) of a latency sample. *)

val sweep : Lazy_xml.Lazy_db.t -> unit
(** One measured request: the full tag-pair count sweep, long enough
    that a sample is dominated by join work. *)

val run_churn_perf :
  seed:int ->
  epochs:int ->
  maintain:[ `Auto of int | `Manual ] ->
  unit ->
  churn_perf * string * Lazy_xml.Governor.t
(** Runs the compressed churn week against a governed [LD] store and
    returns the in-churn measurements, the final document text (the
    input to {!fresh_store}), and the still-live governor for
    steady-state measurement.  [`Auto k] runs up to [k] maintenance
    jobs through the same governor in each epoch's idle gap;
    [`Manual] never maintains.  Both modes execute the identical
    schedule. *)

val fresh_store : string -> Lazy_xml.Lazy_db.t
(** A freshly rebuilt single-segment store over the final text,
    warmed — the "day one" baseline both churn modes are measured
    against. *)

val fresh_baseline : seed:int -> queries:int -> string -> float array
(** Back-to-back sweep latencies against {!fresh_store}; prefer
    {!measure_interleaved} for cross-store comparisons. *)

val measure_interleaved : rounds:int -> (unit -> unit) list -> float array list
(** Round-robin steady-state measurement: each round times one
    request per thunk, so host weather lands on every store in
    proportion instead of deciding one store's tail.  Returns one
    latency array (ms) per thunk, in order. *)

val run_matrix : seeds:int list -> target_ops:int -> unit
(** {!run_churn_crash} + {!run_restore_sweep} per seed with one
    progress line each — the [@slow] tier entry.
    @raise Failure on the first diverging seed. *)
