(** Cost-based twig planning over the path-summary synopsis.

    For a parsed spine (the chain of steps of a path query), the
    planner estimates per-step and per-join cardinalities from
    {!Lxu_seglog.Path_synopsis} and picks
    {ul
    {- a {e seed step} — the most selective step to anchor evaluation
       at, replacing strict left-to-right order with an up phase
       (seed towards the head) followed by a down phase (towards the
       tail);}
    {- an {e engine}: per-join Lazy-Join with push-optimization
       settings, or a holistic pass when streaming every tag once is
       provably cheaper than the best join order (the executor runs a
       predicate-free chain as a {!partition} scan);}
    {- per-join {e restriction evidence}: each planned join carries
       segment filters (membership of the frontier set, synopsis
       ancestor-tag evidence) that Lazy-Join applies before touching
       the element index — selective Proposition 3.}}

    Cardinality estimates are {e exact} on the down side (no
    predicates): an element's ancestor chain is exactly the set of
    prefixes of its root-to-element tag path, so per-path dynamic
    programming over the synopsis counts spine matches and down-join
    pairs without touching the document — in particular the final
    step's count is the exact result cardinality, which is what the
    empty-result shortcut relies on.  Up-phase numbers are sound upper
    bounds, not exact: an up-frontier element's remaining chain lives
    in its subtree, and distinct-ancestor counts are not derivable
    from path counts.  Predicates are not modelled; they only shrink
    sets, so all estimates stay sound upper bounds and a zero still
    proves an empty result. *)

type axis = Desc | Child

type chain = {
  tags : string array;  (** spine tags, head first *)
  axes : axis array;
      (** [axes.(0)] is the leading axis ([Child] = document-level);
          [axes.(i)] relates step [i-1] to step [i] *)
  has_preds : bool;  (** any step carries predicates *)
}

type join_spec = {
  anc : int;  (** step index of the ancestor side *)
  desc : int;  (** step index of the descendant side, [anc + 1] *)
  dir : [ `Up | `Down ];
      (** [`Up]: executed right-to-left of the seed, restricting the
          descendant side; [`Down]: left-to-right, restricting the
          ancestor side *)
  push_filter : bool;
  trim_top : bool;  (** Lazy-Join Figure 9 optimization settings *)
  est_pairs : int;
  mutable actual_pairs : int;  (** [-1] until executed *)
}

type ordered = {
  seed : int;  (** 0-based seed step index *)
  joins : join_spec array;  (** execution order: up joins, then down *)
  est_step : int array;  (** estimated surviving elements per step *)
  actual_step : int array;  (** [-1] until executed *)
  est_cost : float;
  naive_cost : float;  (** estimated cost of left-to-right order *)
}

type t =
  | Naive  (** single-step chains and forced fallback: no plan *)
  | Holistic of { est_stream : int }
      (** stream all tags once (predicate-free chains only); executed
          as a {!partition} scan *)
  | Ordered of ordered

val choose :
  ?force_seed:int -> ?allow_holistic:bool -> log:Lxu_seglog.Update_log.t -> chain -> t
(** Enumerates seed positions, costing each as
    [tag_total(seed) + Σ restricted up-join pairs + Σ restricted
    down-join pairs], and returns the cheapest plan.  [force_seed]
    skips enumeration and orders around the given step (the bench's
    best-hand-ordered oracle); out-of-range values are clamped.
    [allow_holistic] (default true) permits the holistic engine when
    its streaming estimate beats the best join order by a wide margin
    (conservative: joins win ties).  Chains shorter than two steps
    return {!Naive}. *)

val explain : chain -> t -> string
(** Multi-line rendering of the plan: join order, engine and push
    settings per join, estimated vs actual cardinalities (actuals show
    as [-] until the executor fills them in). *)

(** {1 Path partitioning}

    A predicate-free chain needs no join at all.  Every element carries
    its synopsis path slot ({!Lxu_seglog.Er_node.cols}[.pids]), and an
    element matches the chain exactly when its root-to-element path
    does: its ancestors are the path's prefixes.  So the chain is
    matched once against the synopsis' distinct paths, and the answer
    is the last step's elements whose slot matched. *)

type partition = {
  tid : int;
      (** the last step's tag id — the one tag whose columns are
          scanned; [-1] when some step's tag is not in the registry *)
  slots : bool array;
      (** [slots.(s)]: synopsis slot [s] holds a live path the chain
          matches (indexed by every slot handed out when planned) *)
  est : int;
      (** live elements on the matching paths: the exact result
          count, so [0] proves the result empty *)
  mutable actual : int;  (** [-1] until executed *)
}

val partition : log:Lxu_seglog.Update_log.t -> chain -> partition
(** Matches the chain against every live synopsis path, O(paths ×
    steps × path length), touching no element.
    @raise Invalid_argument if the chain has predicates. *)

val explain_partition : log:Lxu_seglog.Update_log.t -> chain -> partition -> string
(** Multi-line rendering: the scanned tag, how many paths match, the
    estimated vs actual result count, then one line per matching path
    with its element count. *)
