open Gcs_core

(** The real backend: a multi-domain in-process message bus.

    Each processor runs as its own OCaml domain with a mutex/condition
    {!Mailbox}; packets are {!Iface.codec}-serialized strings (the same
    codec path later extends to Unix sockets); time is the monotonic wall
    clock ({!Clock}). A controller in the calling domain injects the
    client workload at its scheduled offsets, applies the failure-status
    schedule (crashes hold a processor's events, partitions drop packets
    at send time, ugly links delay or drop — the Section 3.2 fault model
    approximated in wall time), delivers delayed packets, and wakes a
    parked node when its next timer falls due. It does not poll: it
    sleeps until the earliest of those deadlines or [until], and a node
    that parks with an earlier timer, delays a packet past an earlier
    deadline, records the output a held submission waits for, or ends
    the run wakes it early. An idle run costs the
    controller O(1) wake-ups.

    Guarantees (the contract the cross-transport suite checks):
    - {e same automata}: handlers written against {!Iface} run unchanged;
    - {e per-sender FIFO}: packets between a good directed pair are
      handled in send order (mailboxes are FIFO queues);
    - {e live members only}: a [Bad] processor handles nothing while bad
      (its mailbox holds; held events replay on recovery) and packets on a
      [Bad] link are dropped at send time;
    - {e close is close}: once [run] returns, no handler runs and no
      output is recorded — trace timestamps stay below [until] plus one
      handler's residual;
    - {e monotone clock}: trace timestamps are nondecreasing (stamped
      under the trace lock from a monotone clock).

    Unlike the simulator the bus is {e not} deterministic: wall-clock
    interleavings vary run to run. Oracles over bus runs must hold for
    every interleaving (trace conformance, invariants, delivered-order
    agreement), which is exactly what makes a second backend a free
    differential oracle rather than a second source of bugs. *)

type config = {
  ugly_drop_prob : float;  (** ugly link: drop probability at send *)
  ugly_delay_max : float;
      (** ugly link/processor: extra delay drawn uniformly below this *)
}

val default_config : config
(** Drop probability 0.5, 50 ms maximum ugly delay. *)

exception
  Undecodable of { src : Proc.t; dst : Proc.t; bytes : string; error : string }
(** The verdict for a packet the codec rejects at its destination: the
    sending and receiving processors, the frame exactly as sent, and the
    codec's [Error] message. *)

val run :
  ?config:config ->
  ?admit:(outputs:int -> index:int -> bool) ->
  ?metrics:Gcs_stdx.Metrics.t ->
  ?lock_registry:Gcs_stdx.Lock.registry ->
  ?observe:(Proc.t -> 'state -> 'state -> unit) ->
  ?stop:(now:float -> outputs:int -> bool) ->
  'packet Iface.codec ->
  procs:Proc.t list ->
  handlers:('state, 'input, 'packet, 'out) Iface.handlers ->
  init:(Proc.t -> 'state) ->
  inputs:(float * Proc.t * 'input) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  ('state, 'out) Iface.result
(** Times ([inputs], [failures], [until]) are wall-clock seconds from the
    run's start. Inputs at time [<= 0] are preloaded into their mailboxes
    before any domain starts, so they are handled before any packet —
    the anchor the differential suite uses to make delivered orders
    comparable across transports. [seed] drives the per-node PRNGs (ugly
    delays and drops); it does not make the bus deterministic.

    The run's [metrics] gains a [bus.*] section: packets sent/dropped,
    events processed, statuses applied, the controller's wake-ups
    ([bus.controller_wakes]: sleeps that ended, by deadline or by a
    node's wake) and the wall seconds spent.

    [stop] is asked after every handled event, from that node's domain,
    and by the controller at each of its wake-ups; the first to see it
    hold ends the run.

    [admit] adds causal admission control on top of the time schedule:
    a pending input at 0-based schedule position [index] is injected
    only once [admit ~outputs ~index] holds (where [outputs] is the
    number of outputs recorded so far). While a due input is held, and
    only then, every recorded output wakes the controller to ask again;
    a run whose outputs never satisfy [admit] injects nothing more
    before [until], so a caller whose handlers may withhold outputs must
    not pass it. The differential fuzzer uses it to keep submissions
    serialized under controller-scheduling jitter: wall-clock spacing
    alone cannot guarantee submission [i+1] lands after submission [i]
    is fully processed, and for a timestamp protocol a collapsed gap
    yields a different (valid) total order than the reference run — a
    false divergence. Inputs preloaded at time [<= 0] bypass admission
    but count toward [index].

    A handler exception on any node stops the whole run and re-raises
    in the caller; so does a codec [Error], raised as {!Undecodable}.

    [lock_registry] enrolls every bus lock (status matrix, trace, delay
    wheel, observe serializer, one per mailbox) in a
    {!Gcs_stdx.Lock.registry}: acquisition orders, contention counts and
    any observed lock-order cycle are recorded for [gcs lockcheck]. The
    bus's locks are all leaves, so a healthy instrumented run reports an
    edge-free graph. Unset, the locks are plain wrappers with no
    recording. *)

val backend :
  ?config:config ->
  ?admit:(outputs:int -> index:int -> bool) ->
  ?lock_registry:Gcs_stdx.Lock.registry ->
  unit ->
  Iface.backend
(** The bus packaged as a pluggable {!Iface.BACKEND} (named ["bus"]);
    [admit] bakes in the admission predicate (see {!run}). *)
