open Gcs_impl

(** The coverage-guided schedule fuzzer (the main loop).

    Greybox fuzzing over simulated executions: a corpus of schedules is
    mutated under a power schedule that favours entries which discovered
    more abstract-state coverage, candidate batches are executed in
    parallel on a {!Gcs_stdx.Pool}, and the first failing execution is
    handed to the {!Shrink} delta-debugger.

    Determinism: candidate generation draws from one master PRNG
    {e sequentially}, batches have a fixed size independent of the job
    count, executions are pure per input, and results are folded back in
    input order — so the corpus, coverage map, found failure and shrunk
    reproducer are byte-identical at any [jobs], and reproducible from
    [seed] alone. *)

type stats = {
  execs : int;  (** executions performed (seed corpus included) *)
  rounds : int;  (** mutation batches executed *)
  corpus_size : int;
  features : int;  (** cardinality of the global coverage map *)
}

type entry = { input : Input.t; novelty : int }
(** A corpus member and the number of features it contributed when
    admitted (its power-schedule energy). *)

type outcome = {
  stats : stats;
  corpus : entry list;  (** in admission order *)
  coverage : Coverage.t;
  failure : (Input.t * Runner.failure) option;
      (** first failing input, pre-shrink *)
  failures : (Input.t * Runner.failure) list;
      (** every failing input in discovery order — more than one only
          when [stop_on_failure] is false (soak mode) *)
  shrunk : Shrink.result option;
}

val run :
  ?service:Gcs_conformance.Service.t ->
  ?mutant:Gcs_conformance.Service.tagged ->
  ?tamper:Differential.tamper ->
  ?withholds_outputs:bool ->
  ?pair:Differential.pair ->
  ?seeds:Input.t list ->
  ?jobs:int ->
  ?batch:int ->
  ?shrink_budget:int ->
  ?max_events:int ->
  ?stop_on_failure:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(stats -> unit) ->
  config:To_service.config ->
  seed:int ->
  execs:int ->
  unit ->
  outcome
(** [run ~config ~seed ~execs ()] fuzzes until a failure is found or
    [execs] executions are spent. [batch] (default 8) candidates are
    generated per round; [max_events] (default 40) caps mutated schedule
    size; [jobs] defaults to [GCS_JOBS]; [progress] is called after every
    round. [service] selects the system under test
    ({!Gcs_conformance.Services}); the service derives its configuration
    from [config] (its processor set, δ, and for VStoTO everything
    else). [mutant] plants one of a
    service's bugs and implies that service; a mutant of another service
    than [service] raises [Invalid_argument] before anything runs.

    [pair] switches the loop to differential mode: every execution is
    {!Differential.execute} on that pair, the seed corpus is
    {!Differential.seed_inputs}, and mutation works the diff genome only
    (sequence order, origins, count, seed — no fault steps). In this
    mode [tamper], [withholds_outputs] and [mutant] are the
    {!Diff_mutant} hooks infecting the candidate side, and [mutant] must
    belong to the pair's candidate service.

    [seeds] are extra schedules replayed after the built-in seed corpus
    — a loaded {!Corpus} — and admitted under the same novelty rule,
    which deterministically minimizes a restored corpus on load.

    [stop_on_failure:false] is soak mode: the loop keeps fuzzing past
    failures (each is recorded in [failures], and its input re-enters
    the corpus with boosted energy); only the first failure is shrunk.
    [should_stop] is polled once per round — the CLI's wall-clock
    budget. Both leave the per-round determinism story intact: a soak
    interrupted at round [r] saw exactly the rounds a longer run sees
    first. *)

val stats_to_json : outcome -> string
(** Flat deterministic JSON of the run's observable results (stats,
    failure check, event counts before/after shrinking) — the
    across-[jobs] determinism tests compare these bytes. *)

val snapshot_to_json : stats -> wall_s:float -> string
(** One progress-snapshot object: the stats and the wall seconds spent
    ([gcs fuzz --snapshot]). *)

val corpus_strings : outcome -> string list
(** Serialized corpus in admission order ({!Input.to_string}), for
    corpus dumps and byte-level determinism comparison. *)
