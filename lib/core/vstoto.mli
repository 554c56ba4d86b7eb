(** The VStoTO algorithm (Figures 9 and 10): one automaton per processor,
    implementing totally ordered broadcast on top of a view-synchronous
    group communication service.

    Known correction (documented in DESIGN.md): the [label] action carries
    the additional precondition [status = normal], matching the Section 5
    prose ("normal processing of new client messages is allowed to resume"
    only after the state exchange completes). With the literal Figure 10
    precondition, a value labelled between [newview] and the summary send
    enters the summary's [con] component; [fullorder] then orders it at
    view establishment, and its later VS delivery appends it to [order] a
    second time, which leads to double client delivery. Setting
    [literal_figure_10 = true] in {!type:params} reproduces the literal
    (buggy) behaviour; the test suite demonstrates the resulting violation
    of TO.

    One throughput extension, a conservative refinement of the figure
    (DESIGN.md "Throughput engineering"): {b batching}. When several
    labelled values are buffered, the processor [gpsnd]s them as a single
    {!Msg.Batch} — semantically the sequence of its [App]s, delivered and
    made safe element-wise in order. A batch is drawn from the buffer of
    one view, so it never crosses a view boundary.

    The state exchange is not overlapped with new traffic: a processor
    labels and sends application messages only once it has established
    its view, so in the view's VS order every application message
    follows every summary.
    Lemma 6.20 (a label safe at a member of [g] is already in every
    member's [buildorder\[q,g\]]) rests on that order; DESIGN.md
    "Throughput engineering" gives the schedule that breaks it when
    [Collect] may label. *)

module Tape = Gcs_stdx.Tape

type status = Normal | Send | Collect

val status_equal : status -> status -> bool
(** Total, explicit equality — the polymorphic [=] is banned on
    constructed types in this layer (lint rule D3). *)

type state = {
  current : View.t option;
  status : status;
  content : Value.t Label.Map.t;
  nextseqno : int;
  buffer : Label.t Tape.t;
  order : Label.t Tape.t;
  nextconfirm : int;
  nextreport : int;
  highprimary : View_id.t option;
  delay : Value.t Tape.t;
  gotstate : Summary.t Proc.Map.t;
  safe_exch : Proc.Set.t;
  safe_labels : Label.Set.t;
}

type params = {
  me : Proc.t;
  p0 : Proc.t list;
  quorums : Quorum.t;
  literal_figure_10 : bool;
      (** allow [label] in any status, as the figure literally reads *)
}

val default_params :
  me:Proc.t -> p0:Proc.t list -> quorums:Quorum.t -> unit -> params
(** The corrected algorithm: [literal_figure_10 = false]. *)

val initial : params -> state

val primary : params -> state -> bool
(** The derived variable: [current ≠ ⊥ ∧ ∃Q ∈ Q: Q ⊆ current.set]. *)

val summary_of_state : state -> Summary.t
(** [⟨content, order, nextconfirm, highprimary⟩]. *)

val automaton : params -> (state, Sys_action.t) Gcs_automata.Automaton.t
(** The specification object: Figure 10 as an I/O automaton, for
    composition ({!Vstoto_system}), exploration and the tests. Building it
    costs a name and an initial state; a driver that steps one processor
    repeatedly uses {!transition} and {!drain} instead. *)

val transition : params -> state -> Sys_action.t -> state option
(** [(automaton params).transition], without building the automaton:
    [None] when the action is not enabled (or not this processor's). *)

val drain : params -> state -> state * Sys_action.t list
(** Run the locally controlled actions to quiescence, in the priority
    order of [automaton.enabled] ([label] before application [gpsnd]
    before summary [gpsnd] before [confirm] before [brcv]), and return
    the final state with the output actions — the [gpsnd]s and [brcv]s —
    in the order they were taken.

    The result equals stepping the first enabled action with
    {!transition} until none is enabled: internal [label] and [confirm]
    actions are applied but not returned. The three long runs — label
    every delayed value, confirm every safe label next in order, report
    every confirmed label — are each applied in one pass, since no
    action of a run enables a higher-priority one; [gpsnd]s go through
    {!transition}. The returned outputs never feed back into the state,
    so a driver may hand them to the layer below after the drain. *)

val equal_state : state -> state -> bool
val pp_state : Format.formatter -> state -> unit
