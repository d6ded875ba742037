(** Path partitioning and twig matching over the path-summary synopsis.

    Every element carries its synopsis path slot
    ({!Lxu_seglog.Er_node.cols}[.pids]), and an element's ancestor
    chain is exactly the set of proper prefixes of its root-to-element
    tag path.  So a chain of steps is matched once against the
    synopsis' distinct paths: the last step's elements on a matching
    path are exactly the chain's matches when no step carries a
    predicate, and a superset of them otherwise (predicates only shrink
    sets).  Either way a zero count proves the result empty. *)

type axis = Desc | Child

type chain = {
  tags : string array;  (** spine tags, head first *)
  axes : axis array;
      (** [axes.(0)] is the leading axis ([Child] = document-level);
          [axes.(i)] relates step [i-1] to step [i] *)
  has_preds : bool;  (** any step carries predicates *)
}

type partition = {
  tid : int;
      (** the last step's tag id — the one tag whose columns are
          scanned; [-1] when it never occurs *)
  slots : bool array;
      (** [slots.(s)]: synopsis slot [s] holds a live path the spine
          matches (indexed by every slot handed out when planned) *)
  est : int;
      (** live elements on the matching paths: the exact result count
          of the predicate-free spine, an upper bound with predicates,
          so [0] proves the result empty either way *)
  mutable actual : int;  (** [-1] until executed *)
}

val partition : log:Lxu_seglog.Update_log.t -> chain -> partition
(** Matches the chain's spine against the synopsis with one {!down}
    pass per step, O(slots × steps), touching no element.  Predicates
    are ignored. *)

(** {2 Slot sets}

    A [bool array] over every slot handed out.  Slots form a tree
    (a slot's parent is its path minus the last tag), and a pattern is
    matched with a {!down} pass per step from the root and an {!up}
    pass per step from below. *)

val down :
  Lxu_seglog.Path_synopsis.t -> above:bool array option -> axis -> tid:int -> bool array
(** The slots of tag [tid] in [axis] relation to a slot of [above]
    ([None]: to the document root, so [Child] means depth 0 and
    [Desc] any slot of the tag). *)

val up : Lxu_seglog.Path_synopsis.t -> axis -> bool array -> bool array
(** The slots with a slot of [below] as a child ([Child]) or as a
    proper descendant ([Desc]). *)

val live : Lxu_seglog.Path_synopsis.t -> bool array -> int
(** Live elements on the set's slots. *)

val explain_partition : log:Lxu_seglog.Update_log.t -> chain -> partition -> string
(** Multi-line rendering: the scanned tag, how many paths match, the
    estimated vs actual result count, then one line per matching path
    with its element count. *)

val choose : ?allow_holistic:bool -> log:Lxu_seglog.Update_log.t -> chain -> partition
(** [partition ~log chain]; [allow_holistic] is ignored.  A shim kept
    only because the benchmark under [perfbench/] times it as its
    planning span; the next benchmark change deletes it. *)
