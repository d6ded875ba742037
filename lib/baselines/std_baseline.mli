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
  ?axis:Lxu_util.Axis.t ->
  Lxu_seglog.Update_log.t ->
  anc:string ->
  desc:string ->
  unit ->
  (Interval.t * Interval.t) list * stats
(** Result pairs carry global interval labels, sorted by descendant. *)

val global_list : Lxu_seglog.Update_log.t -> tag:string -> Interval.t array
(** The translated, globally-sorted element list of one tag (the input
    list STD consumes).  Per-segment element sets are the segments'
    own columns; translation to global coordinates happens per query
    (global positions move under updates, so they cannot be cached),
    one {!Lxu_seglog.Seg_map.cursor} per segment, as Lazy-Join's
    results translate. *)
