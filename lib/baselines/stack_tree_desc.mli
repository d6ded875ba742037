(** Stack-Tree-Desc (Al-Khalifa et al., ICDE 2002): the classical
    stack-based structural join the paper uses both as its baseline
    (STD) and as the in-segment subroutine of Lazy-Join.

    Joins two lists of interval labels drawn from the same document
    (so elements properly nest), producing ancestor/descendant or
    parent/child pairs sorted by descendant position.  Runs in
    O(|anc| + |desc| + output). *)

type stats = {
  mutable a_scanned : int;  (** ancestor-list entries consumed *)
  mutable d_scanned : int;  (** descendant-list entries consumed *)
  mutable pairs : int;
}

val join :
  ?axis:Lxu_util.Axis.t ->
  anc:Interval.t array ->
  desc:Interval.t array ->
  unit ->
  (Interval.t * Interval.t) list * stats
(** [join ~axis ~anc ~desc ()] with both inputs sorted by start
    position.  The default axis is [Desc].  A label appearing in
    both lists never joins with itself. *)
