(** Mutation fuzzing of the store's own formats: snapshot payloads and
    WAL images, mutated with {!Parser_fuzz.mutate}.

    Every mutant is built from one store (a 25-operation
    {!Crash_harness.gen_ops} schedule, seed 7).  A snapshot mutant is
    resealed with a valid trailer, so it reaches the loader's parser
    rather than stopping at the checksum; a WAL mutant is the raw file
    of a [`Wal] directory.  Each must load (or recover) into a store
    that passes {!Lazy_xml.Lazy_db.check}, or be refused with
    [Failure] or [Sys_error].  Anything else fails the run, naming the
    seed, the round and the mutant. *)

val seal : string -> string
(** A snapshot payload followed by its [crc XXXXXXXX] trailer. *)

val payload : Lazy_xml.Lazy_db.t -> string
(** The bytes {!Lazy_xml.Lazy_db.save} writes, without the trailer. *)

type tally = { accepted : int; refused : int }

val snapshots : seed:int -> rounds:int -> tally
(** [rounds] resealed snapshot mutants through {!Lazy_xml.Lazy_db.load}.
    @raise Failure on anything but a checked load or a refusal. *)

val wals : seed:int -> rounds:int -> tally
(** [rounds] WAL mutants through {!Lazy_xml.Lazy_db.recover}.
    @raise Failure on anything but a checked recovery or a refusal. *)

val run_corpus : seed:int -> rounds:int -> unit
(** {!snapshots} and {!wals} with one progress line. *)
