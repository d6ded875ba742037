(** The text model every differential test edits alongside a store:
    the document as a plain string, edited by string splicing, and
    its labels read off a fresh parse.  A store is right when its text
    and its answers equal what this model gives for the same edits. *)

val splice : string -> gp:int -> string -> string
(** [splice text ~gp frag] inserts [frag] at byte [gp]. *)

val cut : string -> gp:int -> len:int -> string
(** [cut text ~gp ~len] removes the [len] bytes from [gp]. *)

val labels : ?attributes:bool -> string -> (string * (int * int * int)) list
(** [(name, (start, stop, level))] of every element of a well-formed
    forest in document order (ascending start); with
    [~attributes:true] also every attribute, as a child named
    ["@name"] spanning its [name="value"] bytes, as the stores index
    it. *)

val of_tag : (string * 'a) list -> string -> 'a list
(** The labels of one name, in {!labels}' order. *)

val element_extents : string -> (int * int) list
(** [(start, stop)] of every element in document order: the legal
    removal targets. *)

val valid_insert_points : string -> string -> int list
(** [valid_insert_points text frag]: every [gp], ascending, at which
    {!splice} keeps the text a well-formed forest (checked
    exhaustively). *)
