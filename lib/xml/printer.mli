(** XML serialization.

    Renders node trees back to text with proper escaping.  Rendering a
    tree and re-parsing it yields a structurally equal tree whose
    offsets describe the rendered string — the workload generators rely
    on this to turn programmatic trees into insertable segment text. *)

val render : Tree.node list -> string
(** Compact rendering (no added whitespace). *)

val render_indented : ?indent:int -> Tree.node list -> string
(** Pretty rendering for humans; inserts newlines and indentation, so
    offsets of a re-parse will differ from {!render}. *)

val escape_text : string -> string
(** Escapes [&], [<] and [>] for character data. *)

val escape_attr : string -> string
(** Escapes ampersand, angle brackets and double quotes for
    double-quoted attribute values. *)
