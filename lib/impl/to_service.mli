open Gcs_core

(** End-to-end totally ordered broadcast: the {e same} VStoTO automaton
    that was verified against VS-machine (lib/core), driven by the Section
    8 VS implementation inside the discrete-event simulator.

    Each simulated processor holds a [Vs_node] state and a [Vstoto] state;
    VS outputs ([gprcv]/[safe]/[newview]) are fed synchronously into the
    VStoTO automaton, whose enabled locally controlled actions are drained
    immediately (good processors act without delay). Client deliveries
    ([brcv]) and submissions ([bcast]) appear in the timed trace, so runs
    can be checked against TO-machine and TO-property.

    Inputs are applied with {!Vstoto.transition} and each drain is one
    {!Vstoto.drain} call, with the automaton's params built once per
    handler call: its [gpsnd] outputs become client sends of the VS node,
    in order, and its [brcv] outputs client deliveries. The drain equals
    stepping [Vstoto.automaton] action by action (a qcheck property pins
    this), so the service runs the verified automaton unchanged.

    The [stable_storage_latency] option models the Keidar–Dolev design
    point discussed in Section 1: every submitted value is written to
    stable storage (a fixed latency) before the algorithm processes it.

    Throughput engineering (DESIGN.md):
    {ul
    {- [batch_window]: batching in the manner of Nagle's algorithm,
       with the token closing the batch. A client value is handed to
       the automaton at once while nothing is staged and a token visit
       has collected every earlier send of this node; otherwise it is
       staged. Staged values go out together as a single {!Msg.Batch}
       [gpsnd] — one wire frame and one token-ring entry per batch
       instead of per value — as soon as a token visit collects the
       node's last send, and the flush timer is cancelled. The window
       bounds how long a value stays staged when no token comes. With a
       [stable_storage_latency] every value is staged for the write (and
       window) regardless. [None] submits immediately (one [App] per
       value).}
    {- [pipeline]: run the VStoTO automata with [Vstoto.params.pipeline],
       overlapping the post-view-change state exchange with labelling and
       delivery.}} *)

type config = {
  vs : Vs_node.config;
  quorums : Quorum.t;
  stable_storage_latency : float option;
  pipeline : bool;
  batch_window : float option;
}

val make_config :
  ?stable_storage_latency:float ->
  ?quorums:Quorum.t ->
  ?pipeline:bool ->
  ?batch_window:float ->
  Vs_node.config ->
  config
(** Quorums default to majorities over the VS configuration's processors.
    [pipeline] defaults to [true] (the refinement is oracle-checked by the
    same conformance suite); [batch_window] defaults to [None]. *)

val bounds : config -> float * float
(** [(b', d')] for the Theorem 7.1 shape, from this implementation's
    conservative {!Vs_node.impl_b} and {!Vs_node.impl_d}: TO stabilizes
    within [b' = impl_b + impl_d] and delivers within [d' = impl_d + 4δ]. *)

val horizon_slack : float
(** Slack past the theoretical horizon [l + b' + d'] (60): room for
    workload submitted shortly before stabilization to drain. *)

type out =
  | Client of Value.t To_action.t  (** bcast/brcv at the client interface *)
  | Vs_layer of Msg.t Vs_action.t  (** the underlying VS external actions *)

type node
(** Per-processor state (the VS node plus the VStoTO automaton state). *)

val initial : config -> Proc.t -> node

val handlers :
  ?metrics:Gcs_stdx.Metrics.t ->
  config ->
  (node, Value.t, Msg.t Wire.packet, out) Gcs_sim.Engine.handlers
(** Exposed so layers can stack on top (see [Gcs_apps.Session]). *)

(** {2 Node observers}

    Read-only views of the per-processor state, for instrumentation
    layered on the handlers: the fuzzer's coverage probes (status pairs,
    primary switches, view transitions) and its planted-bug wrappers. *)

val node_app : node -> Vstoto.state
val node_view : node -> View.t option
val node_status : node -> Vstoto.status
val node_primary : config -> Proc.t -> node -> bool
val node_views_installed : node -> int
(** Count of [newview] events at the VS layer of this node. *)

val node_staging : node -> (float * Value.t) list
(** The staged-but-unsubmitted values (due time, value), in arrival
    order. Tests use it to pin the batching invariants: the flush timer
    is pending iff this is nonempty, and a view change leaves it empty
    (staged values are flushed into the new view, never stranded). *)

type run = {
  trace : out Timed.t;
  final_nodes : node Proc.Map.t;
      (** per-processor states at the horizon, for the state-invariant
          oracles (observers above apply) *)
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
  metrics : Gcs_stdx.Metrics.t;
      (** the registry passed to {!run} (or a fresh one) with [engine.*],
          [vs.*] and [to.*] sections filled in — including the
          per-delivery bcast→brcv latency histogram
          [to.bcast_brcv_latency] *)
}

val sim :
  ?engine:Gcs_sim.Engine.config -> config -> Gcs_transport.Iface.backend
(** The simulator backend; [engine] defaults to
    {!Gcs_sim.Engine.default_config} at the configuration's δ. *)

val run :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?engine:Gcs_sim.Engine.config ->
  config ->
  workload:(float * Proc.t * Value.t) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  run
(** {!run_on} on {!sim}. *)

val run_on :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?observe:(Proc.t -> node -> node -> unit) ->
  ?stop:(now:float -> outputs:int -> bool) ->
  backend:Gcs_transport.Iface.backend ->
  config ->
  workload:(float * Proc.t * Value.t) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  run
(** The same service on a pluggable transport: the handlers are built
    once and handed to [backend] with the {!Wire.msg_packet_codec} — the
    bus actually serializes every packet through it; the simulator
    ignores it. *)

val client_trace : run -> Value.t To_action.t Timed.t
(** The TO-level timed trace (with failure events), for TO-property. *)

val iter_latencies : (float -> unit) -> Value.t To_action.t Timed.t -> unit
(** Apply the function to the bcast→brcv latency of every delivery in a
    client trace of any total-order service, in trace order and in the
    run's clock units (model time on the simulator, seconds on the bus),
    measured from the value's first bcast. The [to.bcast_brcv_latency]
    histogram records the same values. *)

val record_to_metrics :
  Gcs_stdx.Metrics.t -> Value.t To_action.t Timed.t -> unit
(** Fill in the TO-level metrics of a client trace: the [to.bcasts] and
    [to.deliveries] counters and the {!iter_latencies} histogram
    [to.bcast_brcv_latency]. {!run_on} records them for its own runs. *)

val vs_trace : run -> Msg.t Vs_action.t Timed.t

val to_conforms : config -> run -> (unit, To_trace_checker.error) result
(** Check the client trace against TO-machine (Theorem 7.1, safety part). *)

val vs_conforms : config -> run -> (unit, Vs_trace_checker.error) result
(** Check the VS-layer trace against VS-machine. *)

val deliveries : run -> int
