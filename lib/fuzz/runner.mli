(** Execute one fuzz input against a total-order service and judge it.

    One execution = lift the input's workload into the service's inputs
    and run its stabilized scenario through the scenario runner
    ({!Gcs_nemesis.Harness.judge}; on the simulator with the input's
    seed unless a backend is given), collecting abstract-state coverage
    through the service's hooks ({!Gcs_conformance.Service.S}). The
    runner applies the service's oracle chain — for VStoTO: TO and VS
    trace conformance, the Theorem 7.2 delivery bound (fuzz scenarios
    are always stabilized) and the node-local VStoTO invariants; for
    Skeen: the multi-group order oracle and the node invariants on every
    run, completeness on inputs without fault steps only.

    The observation is a pure function of (service, mutant, config,
    input), so executions fan out over a domain pool without
    coordination. A raised exception is itself a verdict
    ([check = "crash"]), never an escape — the fuzzer treats crashes as
    findings, and a crashing input must not abort the batch that
    contains it. *)

type failure = { check : string; detail : string }

type observation = {
  coverage : Coverage.t;
  verdict : failure option;  (** [None] when every oracle passed *)
  bcasts : int;
  deliveries : int;
  events_processed : int;
}

val execute_full :
  ?service:Gcs_conformance.Service.t ->
  ?mutant:Gcs_conformance.Service.tagged ->
  ?backend:Gcs_transport.Iface.backend ->
  ?drain:float ->
  ?dests:Gcs_core.Proc.t list ->
  config:Gcs_impl.To_service.config ->
  Input.t ->
  observation * Gcs_core.Value.t Gcs_core.To_action.t Gcs_core.Timed.t
(** Execute and return the client trace too (the differential mode
    extracts per-node delivered orders from it).

    [service] defaults to the mutant's service, else VStoTO; a mutant of
    another service raises [Invalid_argument] before anything runs.
    [config] carries the shared parameters: the service derives its own
    configuration from it ({!Gcs_conformance.Service.S.configure}) and
    the simulator runs at its δ. [backend] runs the input on a pluggable
    transport instead (times become wall-clock seconds; coverage over
    [engine.*] counters degenerates to zero buckets, which only matters
    to the coverage-guided loop — the verdict oracles apply unchanged).
    [drain] ends the run as soon as every destination has delivered the
    whole workload ({!Gcs_conformance.Service.drained}), and by time
    [drain] at the latest — the fallback for a run that never drains,
    where the service's own horizon would be far off. [dests] addresses every submission to
    those processors ([[]]: the whole group; the cross-protocol pairs'
    hook, see {!Gcs_conformance.Service.S.lift}). *)

val execute :
  ?service:Gcs_conformance.Service.t ->
  ?mutant:Gcs_conformance.Service.tagged ->
  ?backend:Gcs_transport.Iface.backend ->
  ?dests:Gcs_core.Proc.t list ->
  config:Gcs_impl.To_service.config ->
  Input.t ->
  observation

val replay :
  ?service:Gcs_conformance.Service.t ->
  ?mutant:Gcs_conformance.Service.tagged ->
  ?backend:Gcs_transport.Iface.backend ->
  config:Gcs_impl.To_service.config ->
  Input.t ->
  Gcs_core.Value.t Gcs_core.To_action.t Gcs_core.Timed.t * failure option
(** One execution returning the client trace alongside the verdict — used
    by [gcs fuzz] to dump a shrunk reproducer's trace as a
    {!Gcs_core.Trace_io} artifact (empty on a crashing input). *)

val oracle :
  ?service:Gcs_conformance.Service.t ->
  ?mutant:Gcs_conformance.Service.tagged ->
  ?backend:Gcs_transport.Iface.backend ->
  config:Gcs_impl.To_service.config ->
  check:string ->
  Input.t ->
  failure option
(** The shrinker's test function: [Some f] iff executing the input fails
    the {e same} check as the failure being minimized (so a reduction
    cannot drift to a different bug). *)

val subject :
  ?service:Gcs_conformance.Service.t ->
  ?mutant:Gcs_conformance.Service.tagged ->
  unit ->
  Gcs_conformance.Service.t
(** The service an execution drives: [service], else the mutant's, else
    VStoTO. Raises [Invalid_argument] when [mutant] belongs to another
    service than [service]. *)
