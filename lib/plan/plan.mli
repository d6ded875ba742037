(** A benchmark shim, all that is left of the planner: path evaluation
    ([Path_query] in [lazy_xml]) chooses each step's candidate slots
    itself.  The next benchmark change deletes this library. *)

type axis = Lxu_util.Axis.t = Desc | Child

type chain = {
  tags : string array;  (** spine tags, head first *)
  axes : axis array;
      (** [axes.(0)] is the leading axis ([Child] = document-level);
          [axes.(i)] relates step [i-1] to step [i] *)
  has_preds : bool;  (** any step carries predicates *)
}

val choose : ?allow_holistic:bool -> log:Lxu_seglog.Update_log.t -> chain -> unit
(** Does nothing.  Kept, with {!chain}, only because the benchmark
    under [perfbench/] binds them as its planning span. *)
