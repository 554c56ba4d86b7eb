open Gcs_core
open Gcs_impl

(** Run the end-to-end TO service (VStoTO over the Section 8 VS
    implementation) under a nemesis scenario and check everything the
    paper promises:

    - the client trace conforms to TO-machine ({!To_trace_checker});
    - the VS-layer trace conforms to VS-machine ({!Vs_trace_checker});
    - when the scenario ends with the world fully good, the conditional
      delivery bound of Theorem 7.2 holds: every TO order is delivered
      within [b' + d'] of the final stabilization point (checked with
      this implementation's conservative bounds [Vs_node.impl_b] /
      [Vs_node.impl_d]). *)

type outcome = {
  scenario : Scenario.t;
  seed : int;
  until : float;
  stabilization : float;
  to_conformance : (unit, string) result;
  vs_conformance : (unit, string) result;
  bound : To_property.report option;
      (** [None] when the scenario does not end fully good (the premise
          of TO-property would be vacuous). *)
  bcasts : int;
  deliveries : int;
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
  metrics : Gcs_stdx.Metrics.t;
      (** full registry of the run ([engine.*], [vs.*], [to.*]) plus the
          harness's own [harness.*] counters: bcast/delivery counts split
          at the scenario stabilization time [l]
          ([harness.bcasts.pre_stabilization] etc.) *)
}

val bounds : To_service.config -> float * float
(** [(b', d')] for the Theorem 7.1 shape: TO stabilizes within
    [b' = impl_b + impl_d] and delivers within [d' = impl_d + 4δ]. *)

val horizon_slack : float
(** Slack past the theoretical horizon [l + b' + d'] (60), room for
    workload submitted shortly before stabilization to drain. *)

val default_until : config:To_service.config -> Scenario.t -> float
(** Stabilization time plus [b' + d'] plus slack — the shortest horizon
    at which the delivery-bound check is not vacuous. *)

val default_workload :
  procs:Proc.t list ->
  ?from_time:float ->
  ?spacing:float ->
  ?count:int ->
  unit ->
  (float * Proc.t * Value.t) list
(** Distinct values per origin (required by {!To_property.check}). *)

val run :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?engine:Gcs_sim.Engine.config ->
  ?backend:Gcs_transport.Iface.backend ->
  ?stop:(now:float -> outputs:int -> bool) ->
  ?workload:(float * Proc.t * Value.t) list ->
  config:To_service.config ->
  ?until:float ->
  seed:int ->
  Scenario.t ->
  outcome
(** On the default simulator path the outcome is a pure function of the
    arguments. [backend] reruns the identical harness — same automata,
    same oracles — on a pluggable transport (e.g. {!Gcs_transport.Bus}),
    where times in the scenario and workload are wall-clock seconds and
    the outcome depends on real scheduling; [engine] is ignored then.
    [stop] is forwarded to the backend so wall-clock runs can end as soon
    as the workload visibly drained. *)

val run_batch :
  ?jobs:int ->
  ?engine:Gcs_sim.Engine.config ->
  ?workload:(float * Proc.t * Value.t) list ->
  config:To_service.config ->
  ?until:float ->
  ?events:int ->
  seeds:int list ->
  unit ->
  outcome list
(** Run one {!Gen.scenario} per seed through {!run} on a
    {!Gcs_stdx.Pool} of [jobs] domains (default: [GCS_JOBS]). Each run
    owns its PRNG, so runs are independent and the outcome list is
    bit-identical to the sequential [List.map] — in seed order — at any
    [jobs]. *)

val passed : outcome -> bool
val pp : Format.formatter -> outcome -> unit

val to_json : outcome -> string
(** One flat JSON object of the checker-facing fields. Deterministic for
    a given (scenario, seed): batch runs compare these strings across job
    counts. *)

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
