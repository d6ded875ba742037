(** Monotonic deadlines and cooperative cancellation for the query
    path.

    The paper's lazy scheme makes updates cheap but leaves query cost
    unbounded: a structural join over a hot tag list can run for as
    long as the data dictates.  This module supplies the two
    primitives the resource-governance layer threads through the join
    loops:

    {ul
    {- a {!t} — an absolute point on the system's monotonic clock
       ([CLOCK_MONOTONIC]), immune to wall-clock steps in either
       direction: a step can neither un-expire a deadline nor fire
       in-flight deadlines early;}
    {- a {!Cancel.t} — an atomic flag any domain can flip, carrying a
       reason, that running operations observe cooperatively.}}

    Both are consumed through a {!guard}: loops call {!check_opt} at
    their boundaries (per segment entry, per join unit, per descendant
    scan), and the guard raises {!Cancel.Cancelled} once the deadline
    passed or the token fired.  The cancellation check is one atomic
    load; clock probes are amortized over 64 checks, so a
    guard adds no measurable cost to the hot loops — and a [None]
    guard adds exactly one branch, keeping the no-governor fast path
    byte-identical in results and stats. *)

val now : unit -> float
(** Seconds on the system monotonic clock ([CLOCK_MONOTONIC]) — not
    wall time; only differences are meaningful.  Successive calls
    never decrease, across domains. *)

type t
(** An absolute deadline on the {!now} clock. *)

val after : float -> t
(** [after s] expires [s] seconds from now ([s <= 0.] is already
    expired). *)

val expired : t -> bool

(** Cooperative cancellation tokens. *)
module Cancel : sig
  type reason =
    | Timeout  (** a deadline expired *)
    | User of string  (** {!cancel} was called, with its reason *)

  exception Cancelled of reason
  (** Raised by {!check_opt} from inside a governed operation; the
      governor layer catches it at the operation boundary and turns it
      into a typed rejection. *)

  type t

  val create : unit -> t

  val cancel : ?reason:string -> t -> unit
  (** Flips the flag (idempotent: the first reason wins).  Safe from
      any domain; running operations observe it at their next guard
      check. *)

  val reason : t -> reason option
  (** [Some _] once cancelled. *)
end

type guard
(** A deadline and/or token bundled into one cheap check point. *)

val guard : ?deadline:t -> ?cancel:Cancel.t -> unit -> guard option
(** [None] when neither a (finite) deadline nor a token is given —
    callers thread [guard option] and pay a single branch on the
    ungoverned path. *)

val check_opt : guard option -> unit
(** [None] is a no-op.  [Some g]
    @raise Cancel.Cancelled with [Timeout] once the deadline passed,
    or with the token's reason once it fired.  The token is read on
    every call; the clock only every 64th call (a guard shared by
    several domains may probe more often — the counter is racy by
    design, never the outcome). *)
