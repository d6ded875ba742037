(** The traditional relabeling approach (Figure 16 baseline).

    Elements of the whole super document are labelled by their global
    (start, stop, level) intervals and stored per tag in document
    order.  A structural update must shift every label positioned
    after the edit — the cost the lazy approach avoids.  This store is
    both the update baseline of Figure 16 and the source of the
    element lists consumed by the [Stack_tree_desc] baseline join. *)

type t

val create : ?index_attributes:bool -> unit -> t
(** An empty super document.  With [~index_attributes:true] every
    attribute is indexed as a subelement named ["@name"]. *)

val doc_length : t -> int
(** Current length of the super document text, in bytes. *)

val element_count : t -> int

val insert : t -> gp:int -> string -> unit
(** [insert t ~gp text] inserts a well-formed fragment at global byte
    offset [gp]: shifts all labels at or after [gp], parses [text] and
    indexes its elements at their global positions.
    @raise Invalid_argument if [gp] is out of bounds.
    @raise Lxu_xml.Parser.Parse_error if [text] is ill-formed. *)

val remove : t -> gp:int -> len:int -> unit
(** [remove t ~gp ~len] deletes the byte range [gp, gp+len): labels
    fully inside are dropped, enclosing labels shrink, following
    labels shift down.
    @raise Invalid_argument if the range is out of bounds. *)

val elements : t -> tag:string -> Interval.t array
(** All labels of elements named [tag], sorted by start position. *)

val tags : t -> string list
(** Distinct tags present, sorted. *)

val last_relabel_count : t -> int
(** Number of labels shifted by the most recent {!insert} or
    {!remove} — the machine-independent cost metric of Figure 16. *)

val check : t -> unit
(** Validates per-tag ordering and interval sanity (test helper).
    @raise Failure on violation. *)
