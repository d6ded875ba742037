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
  ?axis:Lxu_util.Axis.t ->
  ?guard:Lxu_util.Deadline.guard ->
  anc:Interval.t array ->
  desc:Interval.t array ->
  unit ->
  (Interval.t * Interval.t) list * Stack_tree_desc.stats
(** Inputs sorted by start; output sorted by
    (ancestor start, descendant start).  [guard] is checked once per
    ancestor, so the merge raises
    [Lxu_util.Deadline.Cancel.Cancelled] promptly on cancel or
    deadline expiry. *)
