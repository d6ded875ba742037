(** Slot sets over the path-summary synopsis: how a path step's
    candidates are chosen.

    Every element carries its synopsis path slot
    ({!Lxu_seglog.Er_node.cols}[.pids]), and an element's ancestor
    chain is exactly the set of proper prefixes of its root-to-element
    tag path.  So a pattern is matched once against the synopsis'
    distinct paths, and an element can sit in a match only if its slot
    does: a predicate-free chain's matches are exactly the last step's
    elements on a matching slot, and predicates only shrink sets.  A
    candidate set with no live element proves the result empty. *)

type axis = Desc | Child

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

(** {2 Benchmark shim} *)

type chain = {
  tags : string array;  (** spine tags, head first *)
  axes : axis array;
      (** [axes.(0)] is the leading axis ([Child] = document-level);
          [axes.(i)] relates step [i-1] to step [i] *)
  has_preds : bool;  (** any step carries predicates *)
}

val choose : ?allow_holistic:bool -> log:Lxu_seglog.Update_log.t -> chain -> unit
(** Does nothing.  Kept, with {!chain}, only because the benchmark
    under [perfbench/] binds them as its planning span; the next
    benchmark change deletes both. *)
