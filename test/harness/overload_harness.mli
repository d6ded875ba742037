(** The overload chaos harness.

    A governed database is preloaded with a seeded workload, then hit
    from concurrent client domains with an adversarial mix: slow
    readers that spin until their deadline trips, queries under tight
    and generous deadlines, reads parked on cancellation tokens that
    the coordinator fires mid-flight, and bursty writers (some behind
    {!Lazy_xml.Governor.retry}).  Per-client schedules are seeded, so
    a failing seed replays the same decisions.

    What {!run_one} asserts:
    {ul
    {- {b no hang} — every client runs a bounded schedule, the parked
       readers are cancelled from outside, and the run only returns
       once every domain joined;}
    {- {b every rejection is typed} — clients tally each attempt's
       {!Lazy_xml.Governor.rejection} and the tallies must equal the
       governor's shed counters bucket for bucket (an untyped escape
       shows up as an exception or a mismatch);}
    {- {b cancellation is observed} — every parked reader comes back
       [Cancelled] with the fired reason, within a wall-clock bound;}
    {- {b no torn state} — writers record each update they actually
       applied (under the write lock, so in serialization order), and
       the post-pressure fingerprint must be byte-identical to an
       unpressured reference database replaying exactly those
       updates: shed or killed operations left no trace.}}

    After the pressure phase a {b mixed read/write phase} runs: one
    writer streams {!Lazy_xml.Governor.insert_many} batches while
    reader domains keep querying and two parked snapshot pins hold
    their epochs across the whole stream.  Asserted: no read ever
    observes
    [Lxu_seglog.Tag_list.Dirty_tag_list], the parked pins keep their
    epoch {e and} their bytes, and the phase's attempts fold into the
    same bucket-exact shed accounting as the pressure phase.

    The database is an [LD] one (the only engine {!Lazy_xml.Shared_db}
    serves).  Failures raise [Failure] with the seed and the full
    applied schedule ({!Crash_harness.ops_to_string}), so any
    report replays deterministically. *)

type report = {
  ok : int;  (** attempts that completed *)
  overloaded : int;
  timed_out : int;
  cancelled : int;  (** rejection tallies across every client attempt *)
  max_cancel_latency_s : float;
      (** worst fire-to-return latency over the parked readers *)
  elapsed_s : float;
}

val run_one : seed:int -> unit -> report
(** One chaos run against a fresh governed database.
    @raise Failure (with the seed in the message) on any
    violated assertion. *)

val run_matrix : seeds:int list -> unit
(** {!run_one} for every seed, one progress line each.
    @raise Failure on the first violation. *)
