open Gcs_core

(** Discrete-event network simulator implementing the paper's timed
    asynchronous model (Section 8's assumptions):

    - while a processor is {e good} it handles events immediately;
    - while {e bad} it takes no steps — events addressed to it are held and
      replayed when it recovers (state is preserved across crashes, as the
      paper assumes);
    - while {e ugly} each event is handled after one extra random delay;
    - a packet sent while the (directed) link is {e good} arrives within
      [delta]; while {e bad} it is dropped; while {e ugly} it is dropped
      with probability [ugly_drop_prob] or delayed by up to
      [ugly_delay_max] — never less than the good-link minimum (δ/2 with
      jitter, δ without), so a degraded link cannot beat a good one.

    Link status is sampled at send time. Self-addressed packets always
    arrive, after a negligible delay.

    Nodes are deterministic event handlers over private state; all
    randomness comes from the engine's PRNG, so runs are reproducible. *)

type config = {
  delta : float;  (** good-link delay bound δ *)
  jitter : bool;  (** deliver in (δ/2, δ] uniformly instead of exactly δ *)
  fifo : bool;
      (** enforce per-directed-link FIFO delivery (off by default: the
          paper's channels only bound delay; protocols that assume FIFO —
          e.g. the Lamport-timestamp baseline — turn this on). In FIFO mode
          the extra handling delay at an {e ugly} processor also preserves
          event arrival order, so per-link order survives degraded
          destinations. *)
  ugly_drop_prob : float;
  ugly_delay_max : float;
}

val default_config : delta:float -> config

(** The handler-facing types below are re-exports (with equations) of
    {!Gcs_transport.Iface}, the pluggable-transport seam: handlers built
    against this module run unchanged on any {!Gcs_transport.Iface.backend}
    — this simulator (packaged as {!Backend}) or the real multi-domain
    bus ({!Gcs_transport.Bus}). *)

type ('packet, 'out) effect = ('packet, 'out) Gcs_transport.Iface.effect =
  | Send of { dst : Proc.t; packet : 'packet }
  | Set_timer of { id : int; delay : float }
      (** (re-)arm timer [id]; any previously armed timer with the same id
          at this processor is superseded *)
  | Cancel_timer of { id : int }
  | Output of 'out  (** record an external event in the timed trace *)

type ('state, 'input, 'packet, 'out) handlers =
      ('state, 'input, 'packet, 'out) Gcs_transport.Iface.handlers = {
  on_start :
    Proc.t -> 'state -> 'state * ('packet, 'out) effect list;
  on_input :
    Proc.t -> now:float -> 'input -> 'state -> 'state * ('packet, 'out) effect list;
  on_packet :
    Proc.t ->
    now:float ->
    src:Proc.t ->
    'packet ->
    'state ->
    'state * ('packet, 'out) effect list;
  on_timer :
    Proc.t -> now:float -> id:int -> 'state -> 'state * ('packet, 'out) effect list;
}

type ('state, 'out) result = ('state, 'out) Gcs_transport.Iface.result = {
  trace : 'out Timed.t;
  final_states : 'state Proc.Map.t;
  events_processed : int;
  packets_sent : int;
  packets_dropped : int;
  statuses_applied : int;
      (** failure-status events applied from the [failures] schedule *)
  metrics : Gcs_stdx.Metrics.t;
      (** the registry passed to {!run} (or a fresh one), with the
          engine's [engine.*] section filled in: events processed,
          packets sent/dropped per link status, events held at bad and
          delayed at ugly processors, and the queue-depth high-water
          mark *)
}

val run :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?observe:(Proc.t -> 'state -> 'state -> unit) ->
  ?stop:(now:float -> outputs:int -> bool) ->
  config ->
  procs:Proc.t list ->
  handlers:('state, 'input, 'packet, 'out) handlers ->
  init:(Proc.t -> 'state) ->
  inputs:(float * Proc.t * 'input) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  prng:Gcs_stdx.Prng.t ->
  ('state, 'out) result
(** [observe] (when given) is called with the pre- and post-state around
    every handler application, including the start-up calls — a pure
    observation hook (it must not mutate shared state that feeds back into
    the run). The schedule fuzzer uses it to derive abstract-state
    coverage from state transitions without recording state history.

    [stop ~now ~outputs:k] is asked after every event, with [k] the
    [Output] effects recorded so far; once it holds the run ends there,
    a prefix of the run to [until]. *)

