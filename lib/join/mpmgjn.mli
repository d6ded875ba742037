(** MPMGJN — the multi-predicate merge join of Zhang et al. (SIGMOD
    2001), the earliest containment-join baseline the paper surveys
    (§2, [14]).

    A relational-style merge over the two position lists: for every
    ancestor, descendants are scanned forward from a high-water mark
    that only ever moves to the first descendant not yet past the
    ancestor's start.  Nested ancestors force re-scans of the same
    descendants, which is exactly the inefficiency the stack-based
    algorithms remove — the [d_scanned] statistic exposes it. *)

val join :
  ?axis:Stack_tree_desc.axis ->
  ?guard:Lxu_util.Deadline.guard ->
  anc:Lxu_labeling.Interval.t array ->
  desc:Lxu_labeling.Interval.t array ->
  unit ->
  (Lxu_labeling.Interval.t * Lxu_labeling.Interval.t) list * Stack_tree_desc.stats
(** Inputs sorted by start; output sorted by
    (ancestor start, descendant start).  [guard] is checked once per
    ancestor, so the merge raises
    [Lxu_util.Deadline.Cancel.Cancelled] promptly on cancel or
    deadline expiry. *)

val join_cols :
  ?axis:Stack_tree_desc.axis ->
  ?guard:Lxu_util.Deadline.guard ->
  anc:Lxu_seglog.Er_node.cols ->
  desc:Lxu_seglog.Er_node.cols ->
  unit ->
  int array * Stack_tree_desc.stats
(** Columnar, allocation-light variant of {!join} over global
    coordinates (see {!Std_baseline.global_cols}): same merge and same
    stats, but the result is a flat
    [[|a0_start; d0_start; a1_start; d1_start; ...|]] buffer instead
    of a list of interval pairs — the kernel allocates nothing per
    element beyond buffer growth. *)
