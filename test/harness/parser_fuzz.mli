(** Mutation fuzzing for the XML parser.

    Starts from valid documents (generator output, deep chains, an
    attribute/CDATA/entity-rich hand-built one), applies random byte
    edits, and requires the parser to stay {e total}: every mutant
    must come back [Ok] or [Error (Parse_error …)] — any other
    exception, including [Stack_overflow], is a parser bug.  All
    randomness is seeded, so failures replay. *)

val base_doc : int -> string
(** The [i]-th base document (deterministic; any [i >= 0]). *)

val mutate : Lxu_workload.Rng.t -> string -> string
(** 1–8 random byte edits: overwrites, insertions, deletions, slice
    duplications, and injections of XML metacharacters. *)

val preview : string -> string
(** The first 120 bytes of a mutant, escaped, for failure reports. *)

val check_batch : seed:int -> rounds:int -> (unit, string) result
(** Runs [rounds] mutate-and-parse rounds from [seed]; [Error msg]
    carries the escaping exception and the offending mutant. *)

val run_corpus : seeds:int list -> rounds:int -> unit
(** {!check_batch} per seed with a progress line each.
    @raise Failure on the first non-total behaviour. *)
