(** Sorting two parallel [int] columns that arrive as a few sorted
    runs.

    Query results come out of the join and the path evaluator almost
    in document order: each segment's labels translate to increasing
    global positions, and only segment nesting breaks the order — a
    child segment's elements sit inside its parent's.  So instead of
    sorting, the columns are checked for their maximal sorted runs and
    the runs are merged.

    Rows are the pairs [(primary.(i), secondary.(i))], ordered
    lexicographically. *)

val runs : int array -> int array -> int
(** [runs primary secondary] is the number of maximal non-decreasing
    runs of the rows: 0 for no rows, 1 when they are already sorted.
    One O(n) pass.
    @raise Invalid_argument if the columns differ in length. *)

val sort : int array -> int array -> unit
(** [sort primary secondary] sorts the rows in place, stably.  Sorted
    input costs the one O(n) pass of {!runs} and allocates nothing;
    otherwise the runs are merged pairwise, bottom-up, in
    O(n log runs) time with two O(n) scratch columns.
    @raise Invalid_argument if the columns differ in length. *)
