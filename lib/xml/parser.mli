(** A position-tracking XML parser.

    Segments arrive as plain text and elements are labelled by byte
    offsets, so the parser records, for every element, the offset of
    its ['<'] and the offset one past its closing ['>'].  The supported
    subset is what the paper's workloads need: elements, attributes,
    character data with the five predefined entities, CDATA sections,
    comments and processing instructions.  DTDs are not supported.

    Every entry point takes resource {!limits} (defaulted generously)
    so a single hostile segment cannot exhaust the stack or memory:
    nesting beyond [max_depth], more than [max_attrs] attributes on
    one element, or input past [max_input_bytes] raise {!Parse_error}
    like any other malformed input — the parser is total and
    stack-safe for {e any} byte string under the default limits. *)

exception Parse_error of { pos : int; msg : string }

type limits = {
  max_depth : int;  (** maximum element nesting (the recursion bound) *)
  max_attrs : int;  (** maximum attributes on a single element *)
  max_input_bytes : int;  (** maximum input size accepted at all *)
}

val default_limits : limits
(** [{ max_depth = 4096; max_attrs = 512; max_input_bytes = 256 MiB }]
    — far above anything the workloads produce, low enough that the
    recursive-descent parser cannot overflow the stack. *)

val line_col : string -> int -> int * int
(** [line_col input pos] is the 1-based (line, column) of byte [pos];
    [pos] is clamped into [0, length].  Columns count bytes from the
    last ['\n']. *)

val parse_fragment : ?limits:limits -> string -> Tree.node list
(** Parses a well-formed XML fragment: a sequence of elements, text and
    miscellaneous nodes.  Every returned node is annotated with its
    byte offsets in the input.
    @raise Parse_error on ill-formed input or a limit violation. *)

val parse_document : ?limits:limits -> string -> Tree.element
(** Parses a document with exactly one root element (leading or
    trailing whitespace, comments and processing instructions are
    allowed around it).
    @raise Parse_error on ill-formed input or multiple roots. *)

val parse_fragment_result : ?limits:limits -> string -> (Tree.node list, string) result
(** Exception-free variant; the error string reads
    ["parse error at line L, column C (byte P): msg"]. *)

val is_well_formed_fragment : ?limits:limits -> string -> bool
