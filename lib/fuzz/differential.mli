(** Differential execution: every backend becomes an oracle.

    One differential execution runs a fuzz input's fault-free workload
    twice with the same seed — a reference service on the deterministic
    simulator, and a candidate service on the simulator or on the
    multi-domain bus — and judges the per-node delivered orders with
    {!Gcs_conformance.Divergence}. Any disagreement — missing deliveries
    or divergent sequences — is crash-grade: the protocols promise one
    story per schedule, so two correct executions cannot tell different
    ones. This catches exactly the bugs a single-execution oracle
    battery cannot: reorderings that are internally consistent (each run
    alone passes every safety check) but inconsistent with each other.

    A pair is data. Everything else follows from its fields:
    - {b comparison}: the same service on both sides must deliver the
      same sequence at every node; two services, the same contents;
    - {b anchoring}: against a bus candidate, the workload is scheduled
      by the candidate service's {!Gcs_conformance.Service.anchoring}
      and both sides end once it has drained; sim-vs-sim pairs keep the
      stripped input times;
    - {b coverage}: a simulated candidate adds its coverage to the
      reference's; a bus candidate adds none, since wall-clock coverage
      is nondeterministic.

    So a new service gets its sim-vs-bus pair ({!sim_bus}) from its
    {!Gcs_conformance.Services} registration alone.

    Planted divergence-only bugs ({!Diff_mutant}) apply to the
    candidate execution only; the reference side stays the oracle. *)

type backend = Sim | Bus

type pair = {
  name : string;  (** [--diff] value *)
  reference : Gcs_conformance.Service.t;  (** run on the simulator *)
  candidate : Gcs_conformance.Service.t;
  backend : backend;  (** where the candidate runs *)
  batch_window : float option;
      (** submission batching for both sides (VStoTO only) *)
}

type tamper = {
  swap_inputs_at : Gcs_core.Proc.t * int;
      (** at (node, k): exchange the values of that node's [k]-th and
          [k+1]-th submissions (0-based, in schedule order), keeping
          their times *)
}
(** A planted fault for the mutant gauntlet: the candidate runs a
    transposed schedule, as if its input queue reordered a client's
    stream. A single execution cannot tell it from legal client-side
    timing — the run is a valid execution of the {e transposed}
    schedule, so no trace-conformance or invariant oracle fires; its
    {e only} symptom is divergence from the reference execution of the
    real schedule. It never drops or duplicates; with fewer than [k+2]
    submissions at the node it degrades to a no-op. *)

val sim_bus :
  ?name:string -> ?batch_window:float -> Gcs_conformance.Service.t -> pair
(** A service on the simulator against itself on the bus; named
    ["<service>-bus"] unless [name] is given. *)

val all : pair list
(** The named pairs: [sim-bus] and [sim-bus-batched] (VStoTO, the second
    with a batch window of 50, far longer than a token rotation on either
    clock, so a token visit closes every batch on both sides), [skeen-bus],
    and the simulated cross-protocol pairs [vstoto-skeen] and
    [vstoto-sequencer]. *)

val of_name : string -> pair option

val execute :
  ?tamper:tamper ->
  ?withholds_outputs:bool ->
  ?mutant:Gcs_conformance.Service.tagged ->
  config:Gcs_impl.To_service.config ->
  pair ->
  Input.t ->
  Runner.observation
(** Run both sides and judge. The verdict is the reference side's own
    oracle failure if any, a crash of the candidate, [check =
    "diff-incomplete"] (a node missed deliveries on one side) or [check
    = "divergence"]. [config] is the shared configuration of simulated
    pairs; a bus pair builds its own from the processor set and its
    anchoring. [tamper] and [mutant] instrument the candidate side only;
    [withholds_outputs] (default [false]) declares that the candidate's
    handlers may withhold client outputs, so a serialized bus candidate
    is paced by its spacing alone instead of by causal admission, which
    would wait on those outputs until the horizon. A mutant of another
    service than the pair's candidate raises
    [Invalid_argument] as soon as the pair is applied, before anything
    runs. *)

val anchor :
  ?withholds_outputs:bool ->
  pair ->
  config:Gcs_impl.To_service.config ->
  Input.t ->
  Gcs_impl.To_service.config * Input.t * Gcs_transport.Iface.backend option
(** The shared configuration, the scheduled input and the candidate's
    backend ([None]: the simulator) that {!execute} runs both sides
    with, for a fault-free input. *)

val oracle :
  ?tamper:tamper ->
  ?withholds_outputs:bool ->
  ?mutant:Gcs_conformance.Service.tagged ->
  config:Gcs_impl.To_service.config ->
  check:string ->
  pair ->
  Input.t ->
  Runner.failure option
(** Shrinker test function, same contract as {!Runner.oracle}. *)

val seed_inputs :
  procs:Gcs_core.Proc.t list -> prng:Gcs_stdx.Prng.t -> Input.t list
(** Fault-free seed schedules for the differential mode (round-robin
    burst, single-origin stream, seeded random mix). *)
