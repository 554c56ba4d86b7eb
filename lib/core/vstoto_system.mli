(** VStoTO-system (Section 6): the composition of VS-machine with one
    [VStoTO_p] automaton per processor, the VS interface actions hidden,
    augmented with the paper's history variables [established] and
    [buildorder] and with the derived variables of Section 6
    ([allstate], [allcontent], [allconfirm]). *)

module Pg_map = Vs_machine.Pg_map

type history = {
  established : Proc.Set.t View_id.Map.t;
      (** [established\[p,g\]] represented as the set of [p] per [g] *)
  buildorder : Label.t list Pg_map.t;
      (** last value of [order_p] assigned while in view [g] *)
}

type state = {
  vs : Msg.t Vs_machine.state;
  nodes : Vstoto.state Proc.Map.t;
  history : history;
}

type params = {
  procs : Proc.t list;
  p0 : Proc.t list;
  quorums : Quorum.t;
  literal_figure_10 : bool;
  weak_vs : bool;
      (** compose with WeakVS-machine instead of VS-machine (Section 4.1
          Remark: the two have the same finite traces, so the safety
          results are unaffected) *)
}

val make_params :
  ?literal_figure_10:bool ->
  ?weak_vs:bool ->
  procs:Proc.t list ->
  p0:Proc.t list ->
  quorums:Quorum.t ->
  unit ->
  params

val vs_params : params -> Msg.t Vs_machine.params
val node_params : params -> Proc.t -> Vstoto.params
val node : state -> Proc.t -> Vstoto.state
val established : state -> Proc.t -> View_id.t -> bool
val buildorder : state -> Proc.t -> View_id.t -> Label.t list

val automaton : params -> (state, Sys_action.t) Gcs_automata.Automaton.t

val inject :
  params ->
  values:Value.t list ->
  state ->
  Gcs_stdx.Prng.t ->
  Sys_action.t list
(** Candidate environment actions for schedulers: a random [bcast] (drawing
    from [values]) and a fresh random [createview]. *)

(** {2 Derived variables (Section 6)} *)

val allstate_entries : params -> state -> (Proc.t * View_id.t * Summary.t) list
(** All [(p, g, x)] with [x ∈ allstate\[p,g\]] (duplicate summaries are
    retained). *)

val allstate : params -> state -> Summary.t list
val allcontent_pairs : params -> state -> (Label.t * Value.t) list

val allcontent : params -> state -> Value.t Label.Map.t option
(** [None] when [allcontent] is not a function (Lemma 6.5 violated). *)

val allconfirm : params -> state -> Label.t list option
(** [lub] of the [confirm] prefixes; [None] when they are inconsistent
    (Corollary 6.24 violated). *)
