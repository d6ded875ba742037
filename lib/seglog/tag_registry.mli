(** Interning of element tag names.

    The update log and element index key everything by small integer
    tag ids ([tid]); this registry assigns them on first sight and
    resolves them both ways. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** [intern t tag] returns the tid of [tag], allocating one if new. *)

val clone : t -> t
(** Copy for frozen snapshots, O(1): the copy shares the table, and
    the next {!intern} of a new tag on either side copies it first. *)

val find : t -> string -> int option
(** The tid of [tag], if it has been seen. *)

val name : t -> int -> string
(** @raise Invalid_argument on an unknown tid. *)

val count : t -> int
(** Number of distinct tags seen (the paper's [T]). *)
