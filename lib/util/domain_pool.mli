(** A reusable fixed-size pool of OCaml 5 domains with chunked
    self-scheduling ("work stealing from a shared counter"): callers
    submit an indexed task set [f 0 .. f (n-1)] and the pool's workers
    grab contiguous index chunks from a shared cursor until the set is
    exhausted.  Results are deterministic by construction — task [i]
    always produces slot [i] — regardless of which worker runs it.

    A pool of size 1 spawns no domains and degrades to a plain
    sequential loop, as does any pool when [LXU_DOMAINS=1] is set in
    the environment at pool-creation time (the override caps the
    default size; an explicit [~size] wins).  One task set runs at a
    time per pool; submissions from the owning thread queue up behind
    the in-flight set. *)

type t

val env_domains : unit -> int option
(** The [LXU_DOMAINS] override, when set to a valid positive integer. *)

val create : ?size:int -> unit -> t
(** A pool of [size] domains total: [size - 1] spawned workers plus
    the calling thread, which participates in every {!map}.
    [size] defaults to [LXU_DOMAINS] when set, otherwise
    [Domain.recommended_domain_count ()], and is clamped to [1, 64]
    (OCaml caps live domains at 128).
    @raise Invalid_argument if [size < 1]. *)

val size : t -> int

val shared : size:int -> t
(** A process-wide pool of the given size, created on first use and
    cached; subsequent calls with the same size return the same pool.
    Shared pools are shut down automatically at exit.  Use this when
    many short-lived owners (e.g. databases) need a pool: spawning a
    pool per owner would exhaust the domain limit. *)

val map : ?chunk:int -> t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] is [[| f 0; ...; f (n-1) |]], computed on the pool.
    Equivalent to sequential [Array.init n f] for any [f] whose tasks
    are independent; the result order never depends on the schedule.
    [chunk] is the number of consecutive indices a worker claims at a
    time; it defaults to [max 1 (n / (8 * size))].  The calling
    thread runs tasks alongside the workers, then blocks until every
    claimed task finished.  Blocks first while a previous task set of
    this pool is still in flight.  If any task raised, the first
    exception (by completion order) is re-raised with its backtrace;
    remaining unclaimed tasks are abandoned. *)

val shutdown : t -> unit
(** Waits for the in-flight task set, then stops and joins every
    worker.  Idempotent.  Subsequent {!map}s raise, except over a
    pool of size 1, which still works (it never leaves the caller's
    thread). *)
