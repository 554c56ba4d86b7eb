open Gcs_core

(** One signature for every total-order service.

    The paper specifies total order once — TO-machine plus TO-property —
    and treats VStoTO as one automaton that implements it. This module
    is the harness-side counterpart: {!S} is everything a harness needs
    from a total-order protocol (handlers, codec, input lift, client
    trace, oracle chain, coverage hooks), so the conformance suite, the
    fuzz runner, the differential mode and [gcs load] are written once
    and run over any service. The instances (VStoTO, Skeen, the fixed
    sequencer) and their registry live in {!Services}; a new backend is
    one module there plus one registration. Planted bugs ({!mutant}) are
    not part of a service: the fuzzer's catalog tags each with the
    instance it instruments. *)

(** {2 Planted bugs} *)

type ('node, 'input, 'packet, 'out) handlers =
  ('node, 'input, 'packet, 'out) Gcs_transport.Iface.handlers

type ('packet, 'out) effects = ('packet, 'out) Gcs_transport.Iface.effect list

type ('config, 'node, 'input, 'packet, 'out) mutant = {
  name : string;
  doc : string;  (** the emulated defect, one line *)
  expected_checks : string list;
      (** oracles that may flag it, e.g. [["to-conformance"]] *)
  instrument :
    'config ->
    ('node, 'input, 'packet, 'out) handlers ->
    ('node, 'input, 'packet, 'out) handlers;
      (** fresh instrumentation per call: any latch is allocated inside,
          so instrumented runs on a domain pool stay independent *)
}
(** A planted bug: a rewrite of the effect batches a service's real
    handlers produce, generic over the handler types. *)

val rewrite :
  (Proc.t -> 'node -> ('packet, 'out) effects -> ('packet, 'out) effects) ->
  ('node, 'input, 'packet, 'out) handlers ->
  ('node, 'input, 'packet, 'out) handlers
(** Route every handler's effect batch through [f me post_state effects]. *)

val once :
  (Proc.t -> 'node -> ('packet, 'out) effects -> ('packet, 'out) effects option) ->
  ('node, 'input, 'packet, 'out) handlers ->
  ('node, 'input, 'packet, 'out) handlers
(** A rewrite that fires at most once per instrumented run: [f] returns
    [Some effects'] when its trigger holds. The latch lives in the
    closure. *)

val split_at : ('a -> bool) -> 'a list -> ('a list * 'a * 'a list) option
(** [(before, hit, after)] around the first element satisfying the
    predicate. *)

(** {2 The signature} *)

(** How a harness sees a run's progress without reading its trace. *)
type 'node progress =
  | Outputs
      (** every output is a client action (a bcast or a delivery), so
          the run's output count measures progress — no per-step
          observation needed *)
  | Deliveries of ('node -> int)
      (** outputs include internal layers; the node's client-delivery
          count measures progress *)

(** How a fault-free submission sequence is scheduled so that its
    delivered order does not depend on the backend. This is what lets a
    differential pair compare a simulated run and a wall-clock run of the
    same service exactly. *)
type anchoring =
  | Token_anchored
      (** Every submission at t = 0, under a timing profile in which no
          timeout fires (δ large, μ huge, π small). Each node handles its
          whole workload before the first token reaches it, so the token
          fixes the order by ring traversal alone. *)
  | Serialized
      (** Submissions spaced further apart than one ordering round on
          either clock, and admitted on the bus only once the earlier
          ones are fully delivered. Each commits before the next is
          born, so the delivered order is the submission order. *)

module type S = sig
  val name : string
  (** Registry key and [--service] value: ["vstoto"], ["skeen"], ... *)

  type config
  type input
  type packet
  type node
  type out

  val configure : Gcs_impl.To_service.config -> config
  (** The service's configuration for the harnesses' shared parameters:
      the processor set always, timing and batching where the protocol
      has them. *)

  val procs : config -> Proc.t list

  val default_n : int
  (** Group size of the conformance suite's profiles. *)

  val engine : delta:float -> Gcs_sim.Engine.config
  (** Simulator configuration at link bound [delta] (Skeen asks for
      FIFO links; the bus is FIFO by construction). *)

  val handlers :
    ?metrics:Gcs_stdx.Metrics.t -> config -> (node, input, packet, out) handlers

  val initial : config -> Proc.t -> node
  val codec : packet Gcs_transport.Iface.codec

  val lift : ?dests:Proc.t list -> config -> Proc.t -> Value.t -> input
  (** The service input for a client value submitted at a processor.
      [dests] addresses exactly those processors ([[]]: the whole
      group); without it the service picks its own addressing. Services
      without destination subsets ignore it. *)

  val destinations : config -> input -> Proc.t list
  (** Processors that must deliver the input. *)

  val progress : node progress
  (** What early stops count (see {!drained}). *)

  val completes_under_faults : bool
  (** Whether every submission reaches every destination once faults
      heal (VStoTO recovers through state exchange). [false]: the
      protocol has no retransmission and promises completeness on
      fault-free runs only. *)

  val batching : bool
  (** Whether submissions coalesce under the shared configuration's
      batch window; without it the window does not apply. *)

  val anchoring : anchoring
  (** How a sim-vs-bus differential schedules this service's workload. *)

  val client_trace : out Timed.t -> Value.t To_action.t Timed.t

  val settle : config -> stabilization:float -> workload_end:float -> float
  (** By when a correct run has delivered everything it must, given the
      scenario's stabilization time and the last submission; horizons
      add a slack past it. *)

  val slack : delta:float -> float
  (** The fuzz runner's horizon slack past {!settle}. *)

  val verdict :
    config ->
    faulty:bool ->
    until:float ->
    workload:(float * Proc.t * input) list ->
    out Timed.t ->
    node Proc.Map.t ->
    (string * string) option
  (** The oracle chain: first [(check, detail)] failure, or [None].
      Safety oracles apply to every run; completeness oracles only
      where the protocol promises it — always after stabilization for
      VStoTO, only on fault-free ([faulty = false]) runs for protocols
      without retransmission. Harness scenarios always end fully good,
      so conditional-performance oracles (the Theorem 7.2 bound) apply
      with horizon [until]. *)

  (** {3 Coverage hooks} *)

  val transition_features : config -> Proc.t -> node -> node -> string list
  (** Processor-free features of one handler application (pre, post). *)

  val snapshot_point : node -> node -> bool
  (** Whether the post-state is a quiescent point worth a snapshot. *)

  val snapshot : node -> string
  (** Deterministic serialization for fuzzy-hashed state coverage. *)

  val counter_names : string list
  (** Metrics counters bucketed into run-level features. *)

  val counter_tag : string
  (** Prefix of the client bcast/delivery count features. *)

  val fuzzy_tag : string
end

type t = (module S)

type ('c, 'n, 'i, 'p, 'o) s =
  (module S
     with type config = 'c
      and type node = 'n
      and type input = 'i
      and type packet = 'p
      and type out = 'o)

type tagged =
  | Tagged : ('c, 'n, 'i, 'p, 'o) s * ('c, 'n, 'i, 'p, 'o) mutant -> tagged
      (** A mutant together with the service it instruments. *)

val name : t -> string
val mutant_name : tagged -> string
val mutant_doc : tagged -> string
val mutant_checks : tagged -> string list
val mutant_service : tagged -> t

val tag : ('c, 'n, 'i, 'p, 'o) s -> ('c, 'n, 'i, 'p, 'o) mutant list -> tagged list
(** Tag planted bugs with the service they instrument. *)

val check_mutant : t -> tagged -> unit
(** Raises [Invalid_argument] unless the mutant belongs to the service. *)

val sim : t -> delta:float -> Gcs_transport.Iface.backend
(** The simulator with the service's {!S.engine} configuration — a run
    through it is byte-identical to a direct {!Gcs_sim.Engine.run}. *)

val run :
  ('c, 'n, 'i, 'p, 'o) s ->
  ?mutant:('c, 'n, 'i, 'p, 'o) mutant ->
  ?metrics:Gcs_stdx.Metrics.t ->
  ?observe:(Proc.t -> 'n -> 'n -> unit) ->
  ?stop:(now:float -> outputs:int -> bool) ->
  backend:Gcs_transport.Iface.backend ->
  'c ->
  workload:(float * Proc.t * 'i) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  ('n, 'o) Gcs_transport.Iface.result
(** Run the service (instrumented by [mutant], if any) on [backend]. *)

val tally : Value.t To_action.t Timed.t -> int * int
(** (bcasts, deliveries) of a client trace. *)

val drained :
  ('c, 'n, 'i, 'p, 'o) s ->
  'c ->
  workload:(float * Proc.t * 'i) list ->
  after:float ->
  (Proc.t -> 'n -> 'n -> unit) option * (now:float -> outputs:int -> bool)
(** A [stop] predicate that ends a run once the clock is past [after]
    and every destination has delivered the whole workload (the horizon
    stays the failure fallback), and the [observe] hook it needs, if
    any. With {!Outputs} progress the stop counts outputs — one bcast
    per submission plus one delivery per destination — and needs no
    hook, so a bus run takes no lock per handler step. *)

val bucket : int -> int
(** AFL-style count bucketing: exact 0-3, then 4, 8, 16, 32, 128.
    Coverage hooks bucket counts so runs differing only in magnitude
    within a bucket share features. *)
