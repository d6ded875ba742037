(** The classical-join baseline over the lazy store (§4, first
    paragraph): "we first need to access the SB-tree to get the global
    position of the segments ... element global starting and ending
    positions can be generated and structural joins computed by using
    any existing algorithm."

    This is STD as the paper measures it: read {e every} element of
    both tags from the element index, translate each to a global
    interval, sort, and run Stack-Tree-Desc.  Unlike Lazy-Join it can
    skip nothing — which is exactly the comparison Figure 12 makes. *)

type stats = {
  mutable elements_read : int;  (** records fetched and translated *)
  mutable pairs : int;
}

val run :
  ?axis:Stack_tree_desc.axis ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  (Lxu_labeling.Interval.t * Lxu_labeling.Interval.t) list * stats
(** Result pairs carry global interval labels, sorted by descendant. *)

val global_list : Lxu_seglog.Update_log.t -> tag:string -> Lxu_labeling.Interval.t array
(** The translated, globally-sorted element list of one tag (the input
    list STD consumes).  Per-segment element sets are the segments'
    own columns ({!Lxu_seglog.Update_log.elements_cols}); translation
    to global coordinates still happens per query (global positions
    move under updates, so they cannot be cached). *)

val global_cols : Lxu_seglog.Update_log.t -> tag:string -> Lxu_seglog.Er_node.cols
(** {!global_list} in columnar form (global coordinates, sorted by
    start) — the input of the allocation-light {!Mpmgjn.join_cols}. *)

val path_leaves :
  Lxu_seglog.Update_log.t -> tags:string array -> edges:Path_stack.edge array -> (int * int) list
(** Holistic evaluation of a predicate-free path over the translated
    global lists: one PathStack pass instead of one join per step — the
    executor of the planner's [Holistic] plan.  [tags.(i)] is step [i];
    [edges.(0)] is the leading axis ([Child] keeps only document-level
    elements of the first step) and [edges.(i)] relates step [i-1] to
    step [i].  Returns the distinct final-step matches as global
    [(start, stop)] extents, sorted.
    @raise Invalid_argument if [tags] is empty or the lengths differ. *)
