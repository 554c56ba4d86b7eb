open Gcs_core

(** Baseline: fixed-sequencer totally ordered broadcast.

    Every submission is forwarded to a distinguished sequencer (processor
    0), which assigns consecutive sequence numbers and broadcasts; each
    node delivers in sequence-number order. In a well-behaved network this
    is the latency floor (2 hops + reorder buffering), but it is not
    partition-tolerant: nodes cut off from the sequencer stall, and there
    is no reconciliation — exactly the design point the paper's
    partitionable service improves on. *)

type config = { procs : Proc.t list; sequencer : Proc.t }

val make_config : procs:Proc.t list -> config
(** Sequencer defaults to the smallest processor id. *)

type run = {
  trace : Value.t To_action.t Timed.t;
  packets_sent : int;
  packets_dropped : int;
}

type packet =
  | Request of { origin : Proc.t; value : Value.t }
  | Ordered of { seq : int; origin : Proc.t; value : Value.t }

type node

val initial : Proc.t -> node

val handlers :
  config -> (node, Value.t, packet, Value.t To_action.t) Gcs_sim.Engine.handlers

val node_delivered : node -> int
(** Deliveries performed at this node. *)

val node_pending : node -> int
(** Ordered messages buffered out of sequence. *)

val snapshot_node : node -> string
(** Deterministic serialization of a node's state (counters and the
    out-of-order buffer), for fuzzy-hashed state coverage. *)

val encode_packet : packet -> string
val decode_packet : string -> (packet, string) result
val packet_codec : packet Gcs_transport.Iface.codec

val run_on :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?stop:(now:float -> outputs:int -> bool) ->
  backend:Gcs_transport.Iface.backend ->
  config ->
  workload:(float * Proc.t * Value.t) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  run
(** The baseline on a pluggable transport via {!packet_codec} — the
    simulator through {!Gcs_sim.Backend.of_config}, or the bus for
    wall-clock comparisons against the partitionable stacks. *)

val to_conforms : config -> run -> (unit, To_trace_checker.error) result
val deliveries : run -> int
