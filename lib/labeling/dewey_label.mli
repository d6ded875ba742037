(** ORDPATH-style dynamic Dewey labels (O'Neil et al., SIGMOD 2004),
    one of the immutable prefix schemes the paper surveys in §2.

    A label is a sequence of integer components.  Each tree level
    contributes a {e pos-path}: zero or more even "caret" components
    followed by one odd component.  Pos-paths are prefix-free (a
    pos-path ends with an odd component while every non-final component
    is even), so a label is an ancestor's label iff it extends it
    component-wise.  Insertion between any two siblings always
    succeeds without relabeling, at the price of label growth — the
    storage blow-up the lazy approach avoids. *)

type t

val root : t
(** The label of the document root (pos-path [[1]]). *)

val child_between : parent:t -> left:t option -> right:t option -> t
(** [child_between ~parent ~left ~right] produces a fresh child label
    of [parent] ordered strictly between [left] and [right] (existing
    children of [parent], or [None] for the corresponding extreme).
    @raise Invalid_argument if [left]/[right] are not children of
    [parent] or are not in order. *)

val nth_child : t -> int -> t
(** [nth_child parent i] is the static bulk-load label of child [i]
    (0-based): pos-path [[2i+1]]. *)

val is_ancestor : t -> t -> bool
(** Proper component-prefix test. *)

val parent : t -> t option
(** Strips the final pos-path; [None] for the root. *)

val compare : t -> t -> int
(** Document order: component-lexicographic with ancestors first. *)

val equal : t -> t -> bool

val level : t -> int
(** Number of pos-paths, minus one (the root has level 0). *)

val bit_size : t -> int
(** Storage estimate: sum over components of a variable-length
    encoding width. *)

val to_string : t -> string
(** Dotted form, e.g. ["1.3.4.1"]. *)

val pp : Format.formatter -> t -> unit
