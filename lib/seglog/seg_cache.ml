(** Compatibility shim.  The versioned column cache that lived here is
    gone: every segment now keeps its elements as immutable per-tag
    columns ({!Er_node.cols}), which live and frozen logs read
    directly.  Only this record type remains, because the benchmark in
    [perfbench/] still names it and may only change in a benchmark
    revision.  No value of it is ever built ({!Lazy_db.cache_stats}
    always returns [None]); delete it with that revision. *)

type stats = { lookups : int; hits : int; evictions : int; invalidations : int }
