(** XML node trees with byte offsets.

    The lazy update scheme labels every element by the byte offset of
    its start tag and the byte offset just past its end tag, inside the
    segment text it arrived in (§3.4 of the paper).  Trees produced by
    {!Parser} carry those offsets; trees built programmatically with
    the constructors below carry offset [-1] until they are rendered
    and re-parsed. *)

type attr = {
  attr_name : string;
  attr_value : string;
  a_start : int;  (** offset of the first byte of the name, or [-1] *)
  a_end : int;  (** offset one past the closing quote, or [-1] *)
}

type node =
  | Element of element
  | Text of text  (** character data, decoded *)
  | Cdata of text  (** CDATA section contents, verbatim *)
  | Comment of text  (** comment body without [<!--]/[-->] *)
  | Pi of text  (** processing instruction body without [<?]/[?>] *)

and element = {
  tag : string;
  attrs : attr list;
  mutable children : node list;
  e_start : int;  (** offset of the opening ['<'], or [-1] *)
  e_end : int;  (** offset one past the final ['>'], or [-1] *)
}

and text = { content : string; t_start : int; t_end : int }

val el : ?attrs:(string * string) list -> string -> node list -> node
(** Programmatic element constructor (offsets [-1]). *)

val txt : string -> node
(** Programmatic text constructor (offsets [-1]). *)

val comment : string -> node

val iter_elements : ?base_level:int -> node list -> (element -> level:int -> unit) -> unit
(** Pre-order traversal over all elements of a forest; [level] is the
    nesting depth starting at [base_level] (default 0) for roots. *)

val iter_labels :
  ?attributes:bool ->
  ?base_level:int ->
  node list ->
  (name:string -> start:int -> stop:int -> level:int -> unit) ->
  unit
(** Pre-order traversal over indexable items in ascending start order.
    Elements are reported under their tag; with [~attributes:true]
    (default false) each attribute is also reported as a subelement
    named ["@name"] spanning its [name="value"] bytes at the element's
    level plus one — the paper's treatment of attributes (§1). *)

val element_count : node list -> int
(** Total number of elements in a forest. *)

val distinct_tags : node list -> string list
(** Sorted list of distinct element tags in a forest. *)

val max_depth : node list -> int
(** Depth of the deepest element; an empty forest has depth 0. *)

val equal_structure : node list -> node list -> bool
(** Structural equality ignoring offsets: same tags, attributes, text
    contents and shape.  Adjacent text nodes are not merged. *)

val find_all : node list -> tag:string -> element list
(** All elements with the given tag, in document order. *)
