(** Stack-Tree-Anc (Al-Khalifa et al., ICDE 2002): the sibling of
    {!Stack_tree_desc} that emits join pairs sorted by {e ancestor}
    position.

    Descendants joining an ancestor still on the stack cannot be
    emitted immediately (deeper ancestors may still arrive), so each
    stack entry accumulates its pair list; a popped bottom element
    flushes its (complete) list to the output, and inner lists are
    appended to their parent's on pop.  Useful when the next operator
    in a query plan needs ancestor order. *)

val join :
  ?axis:Lxu_util.Axis.t ->
  anc:Interval.t array ->
  desc:Interval.t array ->
  unit ->
  (Interval.t * Interval.t) list * Stack_tree_desc.stats
(** Inputs sorted by start position; output sorted by
    (ancestor start, descendant start). *)
