(** Forward simulation checking (Lynch & Vaandrager).

    Given a concrete execution, an abstraction function [f] into the state
    space of an abstract automaton, and a step correspondence mapping each
    concrete step to the abstract action sequence it should emulate, check
    that executing that abstract sequence from [f pre] is possible and lands
    exactly on [f post]. External actions must be preserved: the external
    actions of the emitted abstract sequence must equal the external
    projection of the concrete action (this is supplied by the caller through
    the [corresponds] function and checked against the abstract signature
    here only for definedness).

    This operationalizes the paper's Lemma 6.25 proof obligations. *)

type 'ca failure = {
  step_index : int;
  concrete_action : 'ca option;
      (** [None] when the initial-state condition itself fails. *)
  reason : string;
}

val check_execution :
  abstract:('abs, 'aa) Automaton.t ->
  f:('cs -> 'abs) ->
  corresponds:('cs -> 'ca -> 'cs -> 'aa list) ->
  equal_abs:('abs -> 'abs -> bool) ->
  ('cs, 'ca) Exec.execution ->
  (unit, 'ca failure) result
(** [Error failure] on the first step whose abstract emulation fails (an
    abstract action was not enabled, the final abstract state differs from
    [f post], or [f] or [corresponds] raised [Invalid_argument reason] on
    the step's states); [Ok ()] if the whole execution simulates,
    including the initial-state condition
    [equal_abs (f init) abstract.initial]. Never raises [Invalid_argument]
    from [f] or [corresponds]. *)
