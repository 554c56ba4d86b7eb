open Gcs_core

(** The pluggable transport interface.

    The VS/VStoTO automata in [lib/impl] are deterministic event handlers
    over private state: they consume inputs, packets and timer firings and
    emit effects. {e How} messages move and {e what} time means are the
    transport's business — the service specification abstracts the network
    entirely (the paper's central modularity claim). This module is the
    seam: handlers are written once against these types and run unchanged
    on

    - the deterministic discrete-event simulator ({!Gcs_sim.Engine}, which
      re-exports these types with equality), the test/fuzz backend; and
    - the real multi-domain in-process message bus ({!Bus}), where each
      processor is an OCaml domain, packets are serialized strings in
      mutex/condition mailboxes, and time is the monotonic wall clock.

    A {!BACKEND} packages one such executor behind a common [run]
    signature, so whole-service harnesses, the conformance suite and the
    differential fuzzer can be written once per {e oracle} instead of once
    per {e network}. *)

(** {2 Handler-facing types} *)

type ('packet, 'out) effect =
  | Send of { dst : Proc.t; packet : 'packet }
  | Set_timer of { id : int; delay : float }
      (** (re-)arm timer [id]; any previously armed timer with the same id
          at this processor is superseded *)
  | Cancel_timer of { id : int }
  | Output of 'out  (** record an external event in the timed trace *)

type ('state, 'input, 'packet, 'out) handlers = {
  on_start : Proc.t -> 'state -> 'state * ('packet, 'out) effect list;
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

type ('state, 'out) result = {
  trace : 'out Timed.t;
  final_states : 'state Proc.Map.t;
  events_processed : int;
  packets_sent : int;
  packets_dropped : int;
  statuses_applied : int;
  metrics : Gcs_stdx.Metrics.t;
}

(** {2 Packet serialization}

    A real transport moves bytes, not OCaml values; a codec makes the
    serialization path explicit in the interface. The simulator ignores
    it (packets travel by value, byte-for-byte the pre-transport
    behavior); the bus encodes every packet at send and decodes at
    delivery, so the same codec path later extends to Unix sockets. *)

type 'packet codec = {
  enc : 'packet -> string;
  dec : string -> ('packet, string) Stdlib.result;
      (** [Error] on malformed bytes — a backend treats it as a transport
          invariant violation and fails the run rather than guessing. *)
}

val string_codec : string codec
(** The identity codec for string packets. *)

val roundtrip_exn : 'packet codec -> 'packet -> 'packet
(** [dec (enc p)], raising [Invalid_argument] on a codec asymmetry.
    Useful for property tests and paranoid backends. *)

(** {2 Backends} *)

module type BACKEND = sig
  val name : string

  val run :
    ?metrics:Gcs_stdx.Metrics.t ->
    ?observe:(Proc.t -> 'state -> 'state -> unit) ->
    ?stop:(now:float -> outputs:int -> bool) ->
    'packet codec ->
    procs:Proc.t list ->
    handlers:('state, 'input, 'packet, 'out) handlers ->
    init:(Proc.t -> 'state) ->
    inputs:(float * Proc.t * 'input) list ->
    failures:(float * Fstatus.event) list ->
    until:float ->
    seed:int ->
    ('state, 'out) result
  (** Run the fleet to the horizon [until] (simulated seconds on the
      simulator, wall-clock seconds on a real transport).

      [observe] is called with the (pre, post) state around every handler
      application. On a concurrent backend the calls are serialized by a
      mutex but arrive in a nondeterministic order; observers must be
      order-insensitive (the fuzzer's coverage set is).

      [stop ~now ~outputs:k] — where [now] is the run clock and [k] the
      number of [Output] actions recorded so far — lets a caller end the
      run early once the workload has visibly drained, instead of
      sleeping out a conservative wall-clock horizon ([now] lets a
      predicate refuse to stop before a fault schedule has fully
      played). The simulator asks it after every event, so a stopped
      simulated run is a prefix of the run to the horizon. A concurrent
      backend asks it after every event too, from the domain that
      handled the event, so it may run in any node's domain at once: it
      must read only atomics (or other domain-safe state). *)
end

type backend = (module BACKEND)
