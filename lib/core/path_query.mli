(** Path expressions over the lazy database.

    The paper's positioning (§1): structural-join results "are later
    used to evaluate other path query expressions".  This module
    parses a linear XPath subset and evaluates it two ways.

    Grammar: [('/' | '//') tag pred* ( ('/' | '//') tag pred* )*] with
    [pred ::= '\[' path '\]']; a leading tag without an axis means
    [//tag], and inside a predicate it means "descendant of the current
    element".  Examples: ["//person//watch"],
    ["/site/people/person\[profile//interest\]/name"],
    ["person\[watches/watch\]\[@id\]"].

    {b Path partitioning.}  A chain without predicates needs no join.
    Under lazy updates a segment is inserted whole and never gains an
    ancestor, so every element's root-to-element tag path is fixed at
    insertion, and each element carries its path's synopsis slot in
    its segment's columns.  The chain is matched once against the
    synopsis' distinct paths ({!Lxu_plan.Plan.partition}); the answer
    is the last tag's elements whose slot matched, read off that tag's
    columns alone and translated with one cursor per segment.

    {b Join composition.}  A chain with predicates is a composition of
    segment-aware Lazy-Joins, each step semi-joining the previous
    step's matches with the next tag; the cost-based planner
    ({!Lxu_plan.Plan}) picks the order of those joins.  Element sets
    are sorted arrays of packed element refs.

    Evaluation returns the {e final-step matches}: distinct elements of
    the last tag reachable through the whole path, as global
    [(start, stop)] extents in document order. *)

type axis = Desc | Child

type step = { axis : axis; tag : string; predicates : t list }
(** A step with optional existential twig predicates: in
    [person\[profile//interest\]/name], the [person] step carries the
    predicate path [profile//interest]; an element survives the step
    only if every predicate has at least one match below it.  A
    predicate path's leading axis is relative to the step's element
    ([\[b\]] means "has a b descendant", [\[/b\]] "has a b child"). *)

and t = step list

val parse : string -> (t, string) result
(** @return [Error _] on empty input or malformed syntax. *)

val parse_exn : string -> t

val to_string : t -> string

val eval :
  ?plan:[ `Auto | `Naive | `Seed of int ] ->
  ?guard:Lxu_util.Deadline.guard ->
  Lazy_db.t ->
  t ->
  (int * int) list
(** Matches of the final step, sorted by start position.

    [plan] controls planning:
    {ul
    {- [`Auto] (default): a predicate-free chain is a partition scan —
       no join runs, and a synopsis zero answers without touching a
       column.  Otherwise {!Lxu_plan.Plan.choose} picks the join order
       (a seed step, joins climbing then descending from it), the
       engine per join, and the push-optimization settings from the
       path-summary synopsis; segments the synopsis proves irrelevant
       are skipped ("selective Proposition 3").  Results are
       fingerprint-identical to the naive order.}
    {- [`Naive]: strict left-to-right join composition — the
       reference.}
    {- [`Seed k]: join composition around a forced seed step
       (clamped), for benchmarking hand-picked orders.}}

    [guard] makes evaluation cooperative: it is threaded into every
    per-step Lazy-Join and checked between steps and per tag-list
    segment, so evaluation raises [Lxu_util.Deadline.Cancel.Cancelled]
    promptly after a cancel or deadline expiry.
    @raise Invalid_argument on an empty path. *)

val explain :
  ?guard:Lxu_util.Deadline.guard -> Lazy_db.t -> t -> string * (int * int) list
(** Plans the path as [eval ~plan:`Auto], executes it, and returns a
    human-readable rendering of the chosen plan together with the
    results (identical to [eval]'s).  A partition scan shows the
    scanned tag, the matching paths with their counts and the
    estimated vs actual result count; a join plan shows the join
    order, engine and push settings per join, and estimated vs actual
    cardinalities. *)

val eval_string :
  ?plan:[ `Auto | `Naive | `Seed of int ] ->
  ?guard:Lxu_util.Deadline.guard ->
  Lazy_db.t ->
  string ->
  (int * int) list
(** [parse] + [eval]. @raise Invalid_argument on a syntax error. *)

val count :
  ?plan:[ `Auto | `Naive | `Seed of int ] ->
  ?guard:Lxu_util.Deadline.guard ->
  Lazy_db.t ->
  string ->
  int
