(** Synthetic XML document generator — the stand-in for the IBM XML
    Generator [15] the paper uses (§5.1).

    Generates random element trees controlled by the same knobs the
    experiments need: tag vocabulary size, fan-out, depth, and text
    payload length.  Deterministic in the seed. *)

type params = {
  tags : string array;  (** vocabulary; elements draw tags uniformly *)
  max_depth : int;
  max_fanout : int;
  text_chance_pct : int;  (** chance a child slot holds text, 0-100 *)
  text_len : int;
}

val default_params : params

val generate : ?params:params -> seed:int -> target_elements:int -> unit -> Lxu_xml.Tree.node list
(** Random forest with roughly [target_elements] elements (never
    fewer). *)

val generate_text : ?params:params -> seed:int -> target_elements:int -> unit -> string
(** Rendered form of {!generate}. *)

val generate_with_spine_text :
  ?params:params -> seed:int -> target_elements:int -> spine_depth:int -> unit -> string
(** A document with a guaranteed nesting chain of [spine_depth]
    elements, each spine level carrying random filler subtrees so the
    total lands near [target_elements].  Deep chains are what the
    nested chopping shape needs; plain random trees rarely exceed a
    few dozen levels. *)

val deep_chain : tags:string array -> depth:int -> payload:string -> string
(** A document of exactly [depth] nested elements cycling through
    [tags], each level carrying [payload] text — the highly nested
    worst case used to build nested ER-trees. *)
