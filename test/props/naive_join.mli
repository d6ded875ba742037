(** Quadratic reference join — the test oracle.

    Checks containment of every ancestor/descendant label pair by
    brute force.  Only for correctness testing of the real
    algorithms. *)

val join :
  ?axis:Lxu_util.Axis.t ->
  anc:(int * int * int) list ->
  desc:(int * int * int) list ->
  unit ->
  (int * int) list
(** [join ~axis ~anc ~desc ()] over [(start, stop, level)] global
    labels; returns [(anc_start, desc_start)] pairs sorted by
    [(desc_start, anc_start)]. *)
