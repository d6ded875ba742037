(** XMark-like auction-site documents — the stand-in for the XMark
    benchmark [16] used in §5.3's third experiment group.

    Generates the schema subset the paper's five queries touch
    (people/person with phone, profile/interest, watches/watch, plus
    regions, items, categories and auctions for realistic bulk), with
    randomized optional parts so result cardinalities resemble XMark's
    distributions.  Deterministic in the seed; size scales linearly
    with [persons]. *)

val generate_text :
  ?persons:int -> ?items:int -> ?categories:int -> seed:int -> unit -> string
(** The document's text.  Defaults: 100 persons, 60 items, 10
    categories. *)

val queries : (string * string * string) list
(** The paper's Figure 14 queries as [(name, anc, desc)]:
    Q1 person//phone, Q2 profile//interest, Q3 watches//watch,
    Q4 person//watch, Q5 person//interest. *)
