(** The snapshot-isolation differential harness.

    A seeded schedule of valid updates (the crash harness's generator:
    inserts, removes, subtree packs, rebuilds) is first replayed
    single-threaded to record the oracle — the full query fingerprint
    after {e every} operation prefix.  Then one mutator domain streams
    the schedule into a {!Lazy_xml.Shared_db} in write groups of 1–3
    operations while reader domains race it: each read pins the newest
    published snapshot and must observe {e exactly} the oracle
    fingerprint of its pinned epoch.

    What that proves, per read:
    {ul
    {- {b isolation}: the fingerprint equals the single-threaded
       replay frozen at the pinned epoch — a torn read would
       fingerprint as no prefix at all, a half-published group as an
       interior epoch readers must never pin;}
    {- {b no time-travel}: pinned epochs are monotone per reader;}
    {- {b repeatable reads}: a pin held across two fingerprints sees
       identical bytes while the mutator streams on;}
    {- {b read-only snapshots}: updates on a pinned snapshot raise.}}

    And at quiescence: exactly one retained version, zero pins, and
    the live state byte-identical to the full replay.

    Failures raise [Failure] with the seed, domain count, pinned
    epoch, and the schedule prefix up to that epoch — enough to replay
    the divergence deterministically. *)

type report = {
  reads_checked : int;  (** reader iterations that verified a pinned epoch *)
  epochs_published : int;  (** total committed operations *)
  elapsed_s : float;
}

val run_one : seed:int -> target_ops:int -> domains:int -> unit -> report
(** One schedule against 3 racing reader domains; [domains] is the
    query parallelism inside each pinned read ({!Lazy_xml.Lazy_db}'s
    domain fan-out), giving the 1/4 matrix axis.
    @raise Failure on any isolation violation. *)

val run_matrix : seeds:int list -> target_ops:int -> domains:int list -> unit
(** {!run_one} over the full [domains × seeds] grid, one progress line
    each. @raise Failure on the first violation. *)
