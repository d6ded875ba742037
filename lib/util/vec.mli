(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Used wherever the paper's structures keep sorted in-memory lists:
    per-tag label arrays in the traditional store, child lists of
    ER-tree nodes, tag-list path lists.  Supports O(log n) binary
    search and O(n) mid-array insertion, which is exactly the cost
    model of the paper's in-memory child lists (§3.3). *)

type 'a t

val create : unit -> 'a t
val of_list : 'a list -> 'a t

val copy : 'a t -> 'a t
(** An independent vector with the same elements and room for one
    more: the copy-on-write step before a shared vector is changed. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-bounds access. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element. @raise Invalid_argument if empty. *)

val last : 'a t -> 'a

val insert_at : 'a t -> int -> 'a -> unit
(** [insert_at v i x] shifts elements [i..] right by one.  [i] may
    equal [length v] (append). *)

val remove_at : 'a t -> int -> 'a
(** Removes and returns element [i], shifting the tail left. *)

val remove_range : 'a t -> int -> int -> unit
(** [remove_range v i n] removes elements [i .. i+n-1]. *)

val move : 'a t -> src:int -> dst:int -> len:int -> unit
(** [move v ~src ~dst ~len] copies elements [src .. src+len-1] to
    [dst .. dst+len-1] in one blit; the ranges may overlap and must
    both lie inside [0, length v).  The length is unchanged.
    @raise Invalid_argument on a range outside the vector. *)

val clear : 'a t -> unit

val truncate : 'a t -> int -> unit
(** [truncate v n] drops all elements at index [n] and beyond ([n]
    must be [<= length v]); the in-place counterpart of a filtering
    copy. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

val lower_bound : 'a t -> compare:('a -> int) -> int
(** [lower_bound v ~compare] is the first index [i] such that
    [compare (get v i) >= 0], assuming [compare] is monotone over the
    vector (negative for a prefix, then non-negative); returns
    [length v] when no such index exists. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
