(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the per-record
    checksum of the write-ahead log.  Pure OCaml, slicing-by-8; values
    are non-negative ints in [0, 2{^32}).  The reference check value
    is [string "123456789" = 0xCBF43926]. *)

val sub : string -> pos:int -> len:int -> int
(** Checksum of the byte range [pos, pos+len).
    @raise Invalid_argument on an out-of-bounds range. *)

val string : string -> int
(** Checksum of the whole string. *)

val update : int -> string -> pos:int -> len:int -> int
(** [update crc s ~pos ~len] extends checksum [crc] of some bytes with
    the range [pos, pos+len) of [s]: [update (string a) b ~pos:0
    ~len:(String.length b) = string (a ^ b)], and [update 0] is
    {!sub}.  Only the low 32 bits of [crc] are read.  For
    checksumming a stream written piece by piece.
    @raise Invalid_argument on an out-of-bounds range. *)

val bytes_sub : bytes -> pos:int -> len:int -> int
(** Checksum of a byte range of a mutable buffer (no copy; the buffer
    must not be mutated concurrently).
    @raise Invalid_argument on an out-of-bounds range. *)
