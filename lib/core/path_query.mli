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

    {b Join composition.}  Every other evaluation is one left-to-right
    composition of segment-aware Lazy-Joins: the first step's
    elements, then per step a down join from the previous step's
    survivors to the next tag, and per predicate an up join from the
    predicate path's head set.  Element sets are sorted arrays of
    packed element refs.

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
  ?plan:[ `Auto | `Naive ] ->
  ?guard:Lxu_util.Deadline.guard ->
  Lazy_db.t ->
  t ->
  (int * int) list
(** Matches of the final step, sorted by start position.

    [plan] picks the executor:
    {ul
    {- [`Auto] (default): a predicate-free chain is a partition scan —
       no join runs, and a synopsis zero answers without touching a
       column.  A chain with predicates runs the join composition
       with restricted down joins: the ancestor side keeps the
       previous survivors' segments, and the descendant side drops
       every segment whose tag-list entry proves it has no ancestor of
       the ancestor tag ({!Lxu_seglog.Tag_list.may_have_ancestor},
       selective Proposition 3).  Its spine's partition estimate is an
       upper bound, so a zero returns [\[\]] without a join.  Joins
       run on {!Lazy_db.query_pool}.}
    {- [`Naive]: the same composition with no segment filter,
       sequential — the reference.}}
    Both return the same results.

    [guard] makes evaluation cooperative: it is threaded into every
    Lazy-Join and checked between steps and per tag-list segment, so
    evaluation raises [Lxu_util.Deadline.Cancel.Cancelled] promptly
    after a cancel or deadline expiry.
    @raise Invalid_argument on an empty path. *)

val explain :
  ?guard:Lxu_util.Deadline.guard -> Lazy_db.t -> t -> string * (int * int) list
(** Runs the path as [eval ~plan:`Auto] and returns a human-readable
    rendering of the run together with the results (identical to
    [eval]'s).  A partition scan shows the scanned tag, the matching
    paths with their counts and the estimated vs actual result count.
    A join composition shows, in execution order, the pairs of every
    join and, per spine step, its partition estimate (an upper bound)
    against the actual survivors. *)

val eval_string :
  ?plan:[ `Auto | `Naive ] ->
  ?guard:Lxu_util.Deadline.guard ->
  Lazy_db.t ->
  string ->
  (int * int) list
(** [parse] + [eval]. @raise Invalid_argument on a syntax error. *)

val count :
  ?plan:[ `Auto | `Naive ] ->
  ?guard:Lxu_util.Deadline.guard ->
  Lazy_db.t ->
  string ->
  int
