open Gcs_impl

(** Differential execution: every backend becomes an oracle.

    One differential execution runs a fuzz input's fault-free workload
    on two backends with the same seed and judges the per-node delivered
    orders with {!Gcs_conformance.Divergence}. Any disagreement —
    missing deliveries or divergent sequences — is crash-grade: the
    protocols promise one story per schedule, so two correct executions
    cannot tell different ones. This catches exactly the bugs a
    single-execution oracle battery cannot: reorderings that are
    internally consistent (each run alone passes every safety check) but
    inconsistent with each other.

    Faults are stripped from differential inputs because cross-backend
    order agreement is only specified fault-free; each pair also owns
    its workload timing (anchored at zero, or serialized), keeping the
    input's contribution to the genome transport-independent: the
    submission sequence, the origins and the seed.

    Planted divergence-only bugs ({!Diff_mutant}) apply to the
    {e candidate} (second) execution only; the reference side stays the
    oracle and supplies the run's coverage (coverage from a wall-clock
    candidate would be nondeterministic). *)

type pair =
  | Sim_bus
      (** VStoTO on the deterministic simulator vs the multi-domain bus,
          under the conformance harness's anchored workload — exact
          per-node order equality. *)
  | Skeen_bus
      (** Skeen on the simulator vs the bus, under a serialized workload
          (each submission commits before the next is born) — exact
          equality. *)
  | Vstoto_skeen
      (** VStoTO vs Skeen, both simulated, full-group addressing —
          per-node content (multiset) equality, since the two protocols
          legitimately pick different total orders. *)
  | Vstoto_sequencer
      (** VStoTO vs the fixed-sequencer baseline, both simulated —
          content equality. *)

val all : pair list
val name : pair -> string
val of_name : string -> pair option
val doc : pair -> string

val strip : Input.t -> Input.t
(** The fault-free projection applied to every differential input. *)

val candidate : pair -> Gcs_conformance.Service.t
(** The service on the candidate (second) side: VStoTO for [Sim_bus],
    Skeen for [Skeen_bus] and [Vstoto_skeen], the sequencer for
    [Vstoto_sequencer]. *)

val execute :
  ?tamper:Gcs_transport.Bus.tamper ->
  ?mutant:Gcs_conformance.Service.tagged ->
  config:To_service.config ->
  pair ->
  Input.t ->
  Runner.observation
(** Run both sides and judge. The verdict is [check = "divergence"]
    (same deliveries, different order), [check = "diff-incomplete"]
    (a node missed deliveries on one side) or [check = "crash"];
    the reference side's own oracle battery also applies where it runs
    ({!pair.Skeen_bus} and the cross-protocol pairs reuse the
    single-execution runners). Coverage comes from the reference
    execution — including fuzzy-hashed state snapshots — so the
    coverage-guided loop steers by deterministic features only.
    [tamper] and [mutant] instrument the candidate side only; a mutant
    of another service than the pair's {!candidate} raises
    [Invalid_argument] as soon as the pair is applied, before anything
    runs. *)

val oracle :
  ?tamper:Gcs_transport.Bus.tamper ->
  ?mutant:Gcs_conformance.Service.tagged ->
  config:To_service.config ->
  check:string ->
  pair ->
  Input.t ->
  Runner.failure option
(** Shrinker test function, same contract as {!Runner.oracle}. *)

val seed_inputs :
  procs:Gcs_core.Proc.t list -> prng:Gcs_stdx.Prng.t -> Input.t list
(** Fault-free seed schedules for the differential mode (round-robin
    burst, single-origin stream, seeded random mix). *)
