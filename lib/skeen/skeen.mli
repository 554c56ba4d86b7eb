open Gcs_core
open Gcs_sim

(** Skeen-style timestamp total-order multicast — the third competing
    total-order backend (after VStoTO and the fixed-sequencer baseline),
    and the only one with {e real multi-group addressing}: every
    submission names a destination subset, only those members take part
    in the timestamp agreement, and only they deliver.

    Protocol (per message): the origin sends [Propose] to the
    destinations; each destination bumps its Lamport-style logical clock,
    buffers the message as {e uncommitted} with the proposed timestamp
    [(clock, me)], and replies [Proposal]. Once the origin holds a
    proposal from every destination it sends [Commit] with the maximum —
    the final timestamp. A destination delivers committed messages in
    final-timestamp order, as soon as a committed timestamp is below
    every uncommitted proposal it holds (a proposal lower-bounds the
    final, and [Commit] raises the clock past every delivered final, so
    nothing can later commit below it). The protocol has no retransmit
    path, so completeness holds only on fault-free runs; the safety
    oracles below apply to every run.

    Runs unchanged on the simulator and the multi-domain bus through the
    {!Gcs_transport.Iface} seam. *)

type config = { procs : Proc.t list }

val make_config : procs:Proc.t list -> config
(** Raises [Invalid_argument] on an empty processor list. *)

(** {2 Timestamps and identifiers} *)

type ts = { clock : int; origin : Proc.t }
(** Lamport pair ordered by clock, then proposer id. *)

val ts_compare : ts -> ts -> int

type mid = { sender : Proc.t; seq : int }
(** Message identifier: origin and per-origin submission counter. *)

val mid_compare : mid -> mid -> int

(** {2 Protocol} *)

type input = { value : Value.t; dests : Proc.t list }
(** A client submission with its destination subset. *)

val full_group : Value.t -> input
(** Address the whole group ([dests = []] normalizes to [config.procs]). *)

val normalize_dests : config -> Proc.t list -> Proc.t list
(** Sorted, deduplicated; the empty list means the whole group. Applied
    identically on submission and in the checkers. *)

type packet =
  | Propose of { mid : mid; value : Value.t; dests : Proc.t list }
  | Proposal of { mid : mid; ts : ts }
  | Commit of { mid : mid; ts : ts }

type node

val initial : Proc.t -> node

val handlers : config -> (node, input, packet, Value.t To_action.t) Engine.handlers
(** Exposed so the fuzzer can wrap packet handlers with planted bugs. *)

(** {2 Node observers} *)

val node_clock : node -> int
val node_delivered : node -> int
(** Deliveries performed at this node. *)

val node_pending : node -> int
(** Buffered messages awaiting commit or delivery. *)

val node_outstanding : node -> int
(** Messages this node originated whose proposal round is incomplete. *)

val snapshot_node : node -> string
(** Deterministic serialization of a node's protocol state (clock,
    delivery count, pending entries with proposed/committed timestamps,
    outstanding coordinations) — the raw material for the fuzzer's
    fuzzy-hashed state coverage. Equal states render to equal bytes. *)

(** {2 Byte codec} *)

val encode_packet : packet -> string
val decode_packet : string -> (packet, string) result
(** Total: any input yields [Ok] or [Error], never an exception. *)

val packet_codec : packet Gcs_transport.Iface.codec
val pp_packet : Format.formatter -> packet -> unit

(** {2 Runs} *)

type run = {
  trace : Value.t To_action.t Timed.t;
  final_nodes : node Proc.Map.t;
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
}

val run_on :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?observe:(Proc.t -> node -> node -> unit) ->
  ?stop:(now:float -> outputs:int -> bool) ->
  backend:Gcs_transport.Iface.backend ->
  config ->
  workload:(float * Proc.t * input) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  run
(** The handlers on a pluggable transport via {!packet_codec}: the
    simulator through {!Gcs_sim.Backend.of_config} (per-origin FIFO and
    the anchored differential workloads need FIFO links there), or the
    bus, FIFO by construction. *)

val deliveries : run -> int

val orders : Proc.t list -> run -> (Proc.t * string list) list
(** Per-node delivery sequences as ["origin:value"] strings, for
    differential comparison between backends. *)

val to_conforms : config -> run -> (unit, To_trace_checker.error) result
(** Classic TO-machine conformance — meaningful only for {e full-group}
    workloads, where everyone must deliver one shared total order. *)

(** {2 Multi-group oracle}

    Partial multicast breaks the single-total-order oracle: two nodes
    only agree on the {e common subsequence} of what they both receive.
    {!check_group_order} checks exactly the Skeen guarantees: deliveries
    only at declared destinations, at most once, causally after
    submission; per-origin FIFO between messages with equal destination
    sets; and pairwise agreement on the relative order of shared
    messages. Workload values must be distinct per origin (same
    precondition as the TO checkers). *)

val check_group_order :
  config ->
  workload:(float * Proc.t * input) list ->
  Value.t To_action.t Timed.t ->
  (unit, string) result

val check_complete :
  config ->
  workload:(float * Proc.t * input) list ->
  Value.t To_action.t Timed.t ->
  (unit, string) result
(** Every destination of every submission delivered — fault-free runs
    only (Skeen has no retransmission). *)

val expected_deliveries : config -> (float * Proc.t * input) list -> int

val node_invariant_failure : node Proc.Map.t -> (string * string) option
(** First violated per-node structural invariant (check name, detail):
    nonnegative clock and delivery count, no committed entry below this
    node's own proposal for it, and a delivery queue holding exactly one
    key per pending entry, at its final timestamp once committed. *)
