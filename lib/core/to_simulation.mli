(** The forward simulation [f] from VStoTO-system to TO-machine
    (Section 6.2, Lemma 6.25), made executable.

    [f] maps a reachable system state to a TO-machine state through the
    derived variables [allcontent] and [allconfirm]; [corresponds] maps each
    concrete step to the abstract action sequence used in the paper's
    case analysis ([bcast ↦ bcast], [brcv ↦ brcv], [confirm] extending
    [allconfirm] ↦ [to-order], everything else ↦ ε). *)

val abstract_params : Vstoto_system.params -> Value.t To_machine.params

val f :
  Vstoto_system.params -> Vstoto_system.state -> Value.t To_machine.state
(** Raises [Invalid_argument] if [allcontent] is not a function or the
    confirm prefixes are inconsistent — both are invariants of reachable
    states, so this only happens on unreachable (or bug-revealing)
    states. *)

val corresponds :
  Vstoto_system.params ->
  Vstoto_system.state ->
  Sys_action.t ->
  Vstoto_system.state ->
  Value.t To_action.t list

val check_execution :
  Vstoto_system.params ->
  (Vstoto_system.state, Sys_action.t) Gcs_automata.Exec.execution ->
  (unit, string) result
(** Check the simulation step-by-step along a concrete execution
    (operational Lemma 6.25 / Theorem 6.26). A state on which {!f} or
    {!corresponds} raises is a failure of the step that reached it:
    [Error "simulation fails at step k on <action>: <reason>"], never an
    exception. *)
