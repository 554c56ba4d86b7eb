(** The cross-transport conformance suite, over any total-order service.

    One set of fault cases, one oracle chain per service ({!Service.S}),
    N backends. A {!profile} pairs a service and a
    {!Gcs_transport.Iface.backend} with timing suited to the backend's
    notion of time (simulated seconds are free, wall-clock seconds are
    not), and {!check} runs a case and applies the service's whole
    oracle chain — for VStoTO:

    - client trace against TO-machine (Theorem 7.1 safety);
    - VS-layer trace against VS-machine;
    - the Theorem 7.2 delivery bound [b' + d'] past stabilization
      (every case ends with the world fully good, so the premise holds);
    - batch view-homogeneity when batching is on;
    - the VStoTO node-state invariants on every final state (the
      fuzzer's exact oracle set, {!Oracle.vstoto_invariants});

    for Skeen the multi-group order oracle and its node invariants on
    every case, completeness on the clean case only (no retransmission).

    The point of running this per backend: the oracles quantify over
    {e every} interleaving, so they transfer unchanged from the
    deterministic simulator to the nondeterministic bus — a property
    that holds on the sim but fails on the bus is a transport bug (or a
    hidden timing assumption in the automata), and this suite is where
    it surfaces. *)

type profile = {
  label : string;  (** backend name for reports, ["sim"] / ["bus"] *)
  service : Service.t;
  backend : Gcs_transport.Iface.backend;
  config : Gcs_impl.To_service.config;
      (** shared parameters; the service derives its own configuration
          with {!Service.S.configure} *)
  beat : float;
      (** scenario time unit: fault steps land on multiples of this *)
  workload_spacing : float;  (** gap between client submissions *)
  workload_count : int;  (** submissions per processor *)
  slack : float;  (** horizon past the service's settle time *)
  use_stop : bool;
      (** end bus runs as soon as the schedule has played and every node
          has delivered the whole workload addressed to it (the horizon
          stays the failure fallback) *)
}

val sim_profile : ?batch_window:float -> ?n:int -> Service.t -> profile
(** δ = 1, the repository's standard simulated timing; [n] defaults to
    the service's {!Service.S.default_n}. [batch_window] enables
    submission batching where the service has it (VStoTO). *)

val bus_profile : ?batch_window:float -> ?n:int -> Service.t -> profile
(** Wall-clock timing: δ = 0.1 s, fault beats of 0.5 s, early stop on.
    A full fault case converges in a few wall seconds. *)

type case = { name : string; scenario : Gcs_nemesis.Scenario.t }

val cases : profile -> case list
(** Fault schedule per case, scaled by the profile's beat: no faults,
    partition + heal, crash + recover, ugly link, slow processor —
    each ending fully good. *)

val addressing : profile -> (Gcs_core.Proc.t * Gcs_core.Proc.t list) list
(** Origin and destinations of every submission a case makes, in
    submission order. The workload mixes full-group and
    overlapping-subset addressing (a third each to the whole group, to
    the pair from the origin up, to the triple from the index up) where
    the service has destination subsets; a complete run performs one
    delivery per destination. *)

type outcome = {
  case : string;
  seed : int;
  failure : (string * string) option;  (** (oracle, detail); [None] = pass *)
  bcasts : int;
  deliveries : int;
  events_processed : int;
}

val check : profile -> seed:int -> case -> outcome
(** Run one case on the profile's backend and judge it. *)

val run_all : profile -> seed:int -> outcome list

val passed : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit
