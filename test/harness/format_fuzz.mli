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

val moved_gps : seed:int -> rounds:int -> int
(** [rounds] resealed snapshots of the same store, each with one
    [seg] line's gp moved by 1 to 3 bytes either way, through
    {!Lazy_xml.Lazy_db.load}; returns [rounds].  Every one must be
    refused with [Failure]: a stored gp must be the segment's place in
    the tree, and the text alone cannot show a moved one.
    @raise Failure naming the seed, the round and the line on a mutant
    that loads. *)

val wals : seed:int -> rounds:int -> tally
(** [rounds] WAL mutants through {!Lazy_xml.Lazy_db.recover}.
    @raise Failure on anything but a checked recovery or a refusal. *)

val run_corpus : seed:int -> rounds:int -> unit
(** {!snapshots}, {!wals} and {!moved_gps} with one progress line. *)
