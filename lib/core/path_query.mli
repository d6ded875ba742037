(** Path expressions over the lazy database.

    The paper's positioning (§1): structural-join results "are later
    used to evaluate other path query expressions".  This module
    parses a linear XPath subset and evaluates it with structural
    semi-joins.

    Grammar: [('/' | '//') tag pred* ( ('/' | '//') tag pred* )*] with
    [pred ::= '\[' path '\]']; a leading tag without an axis means
    [//tag], and inside a predicate it means "descendant of the current
    element".  Examples: ["//person//watch"],
    ["/site/people/person\[profile//interest\]/name"],
    ["person\[watches/watch\]\[@id\]"].

    {b Semi-joins over slot masks.}  Every evaluation is a chain of
    semi-joins ({!Lxu_join.Lazy_join.semi}).  An element set is a
    selection mask over one tag's per-segment columns.  A step's
    candidates are the elements on the slots where it can sit in a
    match of the whole twig (the synopsis matched down from the root
    and up from every predicate and later step); a predicate keeps the
    candidates with a match below, a step down keeps the next step's
    candidates below a survivor.  One join spans every predicate-free
    step to the next step that has predicates: the steps in between
    are checked on the descendant's own path.

    {b Path partitioning} is how candidates are chosen.  Under lazy
    updates a segment is inserted whole and never gains an ancestor,
    so every element's root-to-element tag path is fixed at insertion,
    and each element carries its path's synopsis slot in its segment's
    columns.  So a chain without predicates is one hop whose last
    step's candidates are exactly its matches: no join runs.

    Evaluation returns the {e final-step matches}: distinct elements of
    the last tag reachable through the whole path, as global
    [(start, stop)] extents in document order. *)

type axis = Lxu_util.Axis.t = Desc | Child

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

    [plan] picks how the chain of semi-joins runs:
    {ul
    {- [`Auto] (default): on candidate masks, each join reading only
       the segments that hold a member on both sides and spanning
       every predicate-free step up to the next predicated one, so a
       predicate-free chain runs no join.  A first step with no
       candidate returns [\[\]] without a join.}
    {- [`Naive]: one semi-join per step, every slot of a tag a
       candidate, every segment read — the reference.}}
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
    [eval]'s): in execution order, every predicate and every spine
    step that ends a hop, with its candidates (elements on the slots
    that can match) and its survivors.  A predicate-free chain shows
    its last step alone, candidates = survivors. *)

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
(** The number of [eval]'s matches without building them: a popcount
    of the last step's survivors.  No extent is translated. *)
