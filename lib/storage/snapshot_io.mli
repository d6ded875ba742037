(** Byte-level I/O for line-oriented snapshot files: a checksummed
    writer and a chunked reader with a strict field scanner.

    A file is lines of fields separated by single spaces and ended by
    ['\n'], with raw length-prefixed blocks between lines, and it ends
    in a trailer line [crc <8 lowercase hex digits>], the CRC-32 of
    every byte before it.  Ints are written the way [%d] writes them
    and read back only in that spelling: an optional ['-'], then
    decimal digits, at most [max_int] in magnitude. *)

(** {1 Writing} *)

type writer
(** Bytes go through one 64 KiB buffer, checksummed as it is flushed:
    writing never builds a payload-sized string. *)

val writer : out_channel -> writer
val add_string : writer -> string -> unit
val add_char : writer -> char -> unit

val add_int : writer -> int -> unit
(** Appends [n] in decimal, as [string_of_int]. *)

val finish : writer -> unit
(** Writes the buffered bytes and then the trailer line over every
    byte added.  The channel is not flushed. *)

(** {1 Reading} *)

type reader
(** Reads a channel from its position at creation up to a limit (its
    end, then the trailer once {!verify_trailer} has run) through a
    bounded buffer: a line is held whole, raw blocks are copied out,
    and nothing else of the file is kept. *)

exception Malformed
(** Raised by the field scanners on a line that is not in the
    expected shape. *)

val reader : in_channel -> reader

val fail_at : int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail_at n fmt ...] raises [Failure] with the message followed by
    [(snapshot byte <n>)]. *)

val fail : reader -> ('a, unit, string, 'b) format4 -> 'a
(** {!fail_at} the {!line_offset}. *)

val line_offset : reader -> int
(** File offset of the current line or raw block (of the reader's
    start, before the first). *)

val verify_trailer : reader -> unit
(** Checks the trailer at the end of the channel against the CRC-32
    of every byte from the reader's start up to it, in one chunked
    pass, and then sets the trailer as the reader's limit; reading
    goes on where it stood.
    @raise Failure (see {!fail}) on a missing trailer or a mismatch. *)

val offset : reader -> int
(** File offset of the next byte to read. *)

val left : reader -> int
(** Bytes between {!offset} and the limit. *)

val next_line : reader -> bool
(** Moves to the next line, [false] when no ['\n'] comes before the
    limit.  The scanners below read the current line from its start. *)

val line : reader -> string
(** The current line, without its ['\n']. *)

val keyword : reader -> string -> unit
(** The line's first field is exactly [k].
    @raise Malformed otherwise. *)

val int : reader -> int
(** The next field, a decimal int: a space, an optional ['-'] and at
    least one digit, then a space or the line end.
    @raise Malformed otherwise, or when the value exceeds [max_int]
    in magnitude. *)

val word : reader -> string
(** The next field: a space, then a non-empty run of bytes up to the
    next space or the line end.
    @raise Malformed otherwise. *)

val eol : reader -> unit
(** Every field of the line has been read.
    @raise Malformed otherwise. *)

val block : reader -> int -> string
(** The next [n] raw bytes (no line structure); the caller bounds [n]
    by {!left} first.
    @raise Malformed when fewer remain. *)

val byte : reader -> int
(** The next raw byte, [-1] at the limit. *)
