open Lxu_storage_core
(** Binary write-ahead log for the update stream.

    The WAL is a logical redo log: the durable state of a lazy
    database is [snapshot + WAL suffix], and each record is one
    {!Lxu_seglog.Update_log}-level operation.  File layout:

    {v
    header   "LXUWAL1 " magic  + mode char (D|S) + attrs char (0|1) + '\n'
    record*  lsn      8 bytes LE   (strictly increasing, from 1)
             kind     1 byte       ('I'nsert 'R'emove 'P'ack re'B'uild)
             paylen   4 bytes LE
             payload  paylen bytes (gp 8 LE [+ len 8 LE | + text])
             crc32    4 bytes LE   over lsn..payload
    v}

    Appends go through a {e group-commit buffer}: {!append} only
    assigns the LSN and encodes the record; {!commit} persists every
    buffered record with a single device write.  {!scan} validates a
    captured byte string record by record and stops — never raises —
    at the first invalid one (torn header or body, checksum mismatch,
    unknown kind, malformed payload, non-monotonic LSN), reporting the
    longest valid prefix so recovery can truncate the tail. *)

type op =
  | Insert of { gp : int; text : string }
  | Remove of { gp : int; len : int }
  | Pack of { gp : int; len : int }
  | Rebuild

type header = { mode : Lxu_seglog.Update_log.mode; index_attributes : bool }

(** {1 Reading} *)

type record = { lsn : int; op : op; end_off : int  (** byte offset just past this record *) }

type scan_result = {
  header : header;
  records : record list;  (** in LSN order *)
  valid_bytes : int;  (** longest valid prefix, header included *)
  total_bytes : int;
  corruption : string option;  (** why the scan stopped early, with byte offset *)
}

val encode_header : header -> string
(** The file header {!create} writes: {!header_bytes} long. *)

val header_bytes : int
(** Size of the file header (the first record boundary). *)

val scan : ?path:string -> string -> scan_result
(** Validates WAL bytes.  Invalid {e records} truncate (see above);
    only an unreadable {e header} raises, since without it not even
    the database configuration is known.
    @raise Failure on a bad header; the message includes [path] (when
    given) and the byte offset. *)

(** {1 Writing} *)

type t

val create : ?next_lsn:int -> device:Sim_file.t -> header -> t
(** A fresh log on [device]: writes the header immediately (one
    device write) and numbers the next record [next_lsn] (default 1,
    or [checkpoint lsn + 1] after a rotation). *)

val attach : device:Sim_file.t -> next_lsn:int -> t
(** Resumes appending to a device whose header already exists — the
    post-recovery path. *)

val append : t -> op -> int
(** Buffers one record and returns its LSN.  Nothing reaches the
    device until {!commit}. *)

val next_lsn : t -> int

val buffered : t -> int
(** Records currently awaiting {!commit}. *)

val commit : ?sync:bool -> t -> unit
(** Persists the buffered records as one device write (the group
    commit); [sync] (default false) additionally fsyncs file-backed
    devices.  No-op when nothing is buffered. *)

val device : t -> Sim_file.t
