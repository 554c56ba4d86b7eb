open Gcs_core
open Gcs_impl

(** The scenario runner: one total-order service under one nemesis
    scenario, judged by the service's whole oracle chain.

    {!judge} compiles the scenario, runs the service
    ({!Gcs_conformance.Service.run}) on a backend and applies
    {!Gcs_conformance.Service.S.verdict}; for VStoTO that is TO-machine
    and VS-machine trace conformance, the Theorem 7.2 delivery bound,
    view-homogeneous batches and the node invariants, for Skeen and the
    sequencer their own chains. The first failing check is the verdict.
    [gcs nemesis] and [gcs soak] ({!run}), the conformance suite
    ({!Suite.check}) and the fuzzer ([Gcs_fuzz.Runner]) all run through
    it. *)

type outcome = {
  scenario : Scenario.t;
  seed : int;
  until : float;
  stabilization : float;
  failure : (string * string) option;
      (** the first failing [(check, detail)] of the oracle chain, or a
          [("crash", exception)] when the run or a checker raised;
          [None] = pass *)
  bcasts : int;
  deliveries : int;
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
  metrics : Gcs_stdx.Metrics.t;
      (** the run's registry ([engine.*], [vs.*], [to.*]) plus the
          runner's own [harness.*] counters: bcast/delivery counts split
          at the scenario stabilization time [l]
          ([harness.bcasts.pre_stabilization] etc.); empty when {!judge}
          was given no registry *)
}

val judge :
  ('c, 'n, 'i, 'p, 'o) Gcs_conformance.Service.s ->
  ?mutant:('c, 'n, 'i, 'p, 'o) Gcs_conformance.Service.mutant ->
  ?metrics:Gcs_stdx.Metrics.t ->
  ?observe:(Proc.t -> 'n -> 'n -> unit) ->
  ?stop:(now:float -> outputs:int -> bool) ->
  ?inspect:(('n, 'o) Gcs_transport.Iface.result -> unit) ->
  ?faulty:bool ->
  backend:Gcs_transport.Iface.backend ->
  'c ->
  workload:(float * Proc.t * 'i) list ->
  until:float ->
  seed:int ->
  Scenario.t ->
  outcome
(** Run the service (instrumented by [mutant], if any) under the
    scenario and judge it. [observe] and [stop] go to the backend;
    [inspect] sees the raw run before the verdict (the fuzzer's coverage
    hook). [faulty] tells the verdict whether the run saw faults
    (default: the scenario has steps). A raised exception becomes a
    [("crash", _)] failure, never an escape, so a crashing schedule
    cannot abort a batch. On the simulator the outcome is a pure
    function of the arguments.

    The verdict's delivery-bound and completeness oracles assume the
    scenario ends with the world fully good (the premise of
    TO-property). A scenario that ends degraded raises
    [Invalid_argument], naming it, before anything runs. *)

val bounds : To_service.config -> float * float
(** {!To_service.bounds}. *)

val default_until : config:To_service.config -> Scenario.t -> float
(** Stabilization time plus [b' + d'] plus {!To_service.horizon_slack}:
    the shortest horizon at which the delivery-bound check is not
    vacuous. *)

val default_workload :
  procs:Proc.t list ->
  ?from_time:float ->
  ?spacing:float ->
  ?count:int ->
  unit ->
  (float * Proc.t * Value.t) list
(** Distinct values per origin (required by {!To_property.check}). *)

val run :
  ?workload:(float * Proc.t * Value.t) list ->
  config:To_service.config ->
  ?until:float ->
  seed:int ->
  Scenario.t ->
  outcome
(** {!judge} on VStoTO over the simulator, with a fresh metrics registry,
    the {!default_workload} and the {!default_until} horizon unless
    given. *)

val passed : outcome -> bool

val pp : Format.formatter -> outcome -> unit

val pp_line : Format.formatter -> outcome -> unit
(** One line: seed, scenario, deliveries and the verdict, with the
    failing check's name. *)

val to_json : outcome -> string
(** One flat JSON object of the outcome's scalar fields, with
    ["failure"] either [null] or [{"check": ..., "detail": ...}].
    Deterministic for a given (scenario, seed). *)

val to_json_with_metrics : outcome -> string
(** {!to_json} with a ["metrics"] member appended: the full
    {!Gcs_stdx.Metrics.to_json} snapshot. Used by failure dumps and
    [gcs nemesis --metrics]. *)

(** {2 Impl-layer token ring under a scenario}

    The bare [Vs_node] fleet (no VStoTO on top), with string client
    messages, checked against VS-machine. *)

type vs_outcome = {
  vs_ring_conformance : (unit, string) result;
  views_installed : int;
  ring_deliveries : int;
}

val run_vs_ring :
  ?protocol:Vs_node.protocol ->
  ?workload:(float * Proc.t * string) list ->
  config:Vs_node.config ->
  ?until:float ->
  seed:int ->
  Scenario.t ->
  vs_outcome
(** The workload defaults to {!default_workload} with an ["r"] value
    prefix; a caller-supplied workload is used verbatim. *)
