(** Reference join — the test oracle.

    Checks containment of every ancestor/descendant label pair that
    can hold one: the descendants are sorted by start once, and each
    ancestor tests only those whose start lies inside it, found by
    binary search.  The test itself is the brute-force one
    ([a.start < d.start && a.stop > d.stop], plus the level for
    [Child]); labels are extents, [start < stop].  Only for
    correctness testing of the real algorithms. *)

val join :
  ?axis:Lxu_util.Axis.t ->
  anc:(int * int * int) list ->
  desc:(int * int * int) list ->
  unit ->
  (int * int) list
(** [join ~axis ~anc ~desc ()] over [(start, stop, level)] global
    labels; returns [(anc_start, desc_start)] pairs sorted by
    [(desc_start, anc_start)]. *)
