(* gcs: command-line driver for the partitionable group communication
   reproduction.

     gcs bounds  — print the Section 8 analytical bounds for a configuration
     gcs run     — simulate the end-to-end TO service under a scenario
     gcs spec    — random executions of the spec machines with invariant,
                   trace and simulation checking
     gcs nemesis — run the fault-injection harness: a named scenario or a
                   seed-reproducible random schedule, checked end to end
     gcs fuzz    — coverage-guided schedule fuzzing with counterexample
                   shrinking (and planted-bug mutants to validate it)
     gcs soak    — a batch of random nemesis schedules on a domain pool
     gcs metrics — run one schedule and print its metrics registry
     gcs timeline— ASCII timeline of a schedule: statuses, views, traffic
     gcs bus     — serve a replicated app over the real multi-domain bus
                   transport and check replica consistency
     gcs load    — open-loop load generator: fixed-rate submissions on
                   either backend, reporting wall-clock client throughput
                   and bcast→brcv latency quantiles *)

open Cmdliner
open Gcs_core
open Gcs_impl

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processors.")

let delta_arg =
  Arg.(
    value & opt float 1.0
    & info [ "delta" ] ~docv:"D" ~doc:"Good-link delay bound δ.")

let pi_arg =
  Arg.(
    value & opt float 8.0
    & info [ "pi" ] ~docv:"PI" ~doc:"Heartbeat spacing π of an idle token (must exceed nδ).")

let mu_arg =
  Arg.(
    value & opt float 10.0
    & info [ "mu" ] ~docv:"MU" ~doc:"Discovery-probe spacing μ.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent runs (0: the GCS_JOBS environment \
           variable, default 1). Results are bit-identical at any job count.")

let resolve_jobs jobs = if jobs > 0 then jobs else Gcs_stdx.Pool.default_jobs ()

let until_arg =
  Arg.(
    value & opt float 500.0
    & info [ "until" ] ~docv:"T" ~doc:"Simulated time horizon.")

let mk_config n delta pi mu =
  let procs = Proc.all ~n in
  { Vs_node.procs; p0 = procs; pi; mu; delta }

(* ------------------------------ bounds ------------------------------ *)

let bounds_cmd =
  let run n delta pi mu =
    let config = mk_config n delta pi mu in
    Printf.printf "configuration: n=%d delta=%.2f pi=%.2f mu=%.2f\n" n delta pi
      mu;
    Printf.printf "paper b  = 9δ + max(π + (n+3)δ, μ)   = %.2f\n"
      (Vs_node.paper_b config);
    Printf.printf "paper d  = 2π + nδ                    = %.2f\n"
      (Vs_node.paper_d config);
    Printf.printf "impl  b' (this variant, conservative) = %.2f\n"
      (Vs_node.impl_b config);
    Printf.printf "impl  d' (this variant, conservative) = %.2f\n"
      (Vs_node.impl_d config);
    Printf.printf "token timeout                         = %.2f\n"
      (Vs_node.token_timeout config)
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the Section 8 analytical bounds.")
    Term.(const run $ n_arg $ delta_arg $ pi_arg $ mu_arg)

(* ------------------------------- run -------------------------------- *)

let parse_partition spec n =
  (* "0,1,2/3,4" -> [[0;1;2];[3;4]] *)
  match spec with
  | "" -> Ok None
  | spec -> (
      try
        let parts =
          List.map
            (fun part ->
              List.map int_of_string (String.split_on_char ',' part))
            (String.split_on_char '/' spec)
        in
        if List.for_all (List.for_all (fun p -> p >= 0 && p < n)) parts then
          Ok (Some parts)
        else Error "partition mentions a processor outside 0..n-1"
      with Failure _ -> Error "malformed partition spec")

let run_cmd =
  let partition_arg =
    Arg.(
      value & opt string ""
      & info [ "partition" ] ~docv:"SPEC"
          ~doc:"Partition specification, e.g. 0,1,2/3,4 (empty: none).")
  in
  let split_arg =
    Arg.(
      value & opt float 100.0
      & info [ "split-at" ] ~docv:"T" ~doc:"Time of the partition.")
  in
  let heal_arg =
    Arg.(
      value & opt float 300.0
      & info [ "heal-at" ] ~docv:"T"
          ~doc:"Time of the heal (negative: never heal).")
  in
  let messages_arg =
    Arg.(
      value & opt int 5
      & info [ "messages" ] ~docv:"K" ~doc:"Client values per processor.")
  in
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ] ~doc:"Draw an ASCII timeline of the run.")
  in
  let dump_arg =
    Arg.(
      value & opt string ""
      & info [ "dump" ] ~docv:"PREFIX"
          ~doc:
            "Write the run's timed traces to PREFIX.to and PREFIX.vs (see \
             gcs check).")
  in
  let run n delta pi mu seed until partition split_at heal_at messages timeline
      dump =
    let vs_config = mk_config n delta pi mu in
    let config = To_service.make_config vs_config in
    let procs = vs_config.Vs_node.procs in
    match parse_partition partition n with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 2
    | Ok parts ->
        let failures =
          match parts with
          | None -> []
          | Some parts ->
              List.map
                (fun e -> (split_at, e))
                (Fstatus.partition_events ~parts)
              @
              if heal_at >= 0.0 then
                List.map (fun e -> (heal_at, e)) (Fstatus.heal_events ~procs)
              else []
        in
        let workload =
          List.concat_map
            (fun p ->
              List.init messages (fun k ->
                  ( 10.0 +. (float_of_int k *. 30.0) +. float_of_int p,
                    p,
                    Printf.sprintf "v%d.%d" p k )))
            procs
        in
        let run = To_service.run config ~workload ~failures ~until ~seed in
        Printf.printf "simulated until t=%.1f: %d events, %d packets (%d dropped)\n"
          until run.To_service.events_processed run.To_service.packets_sent
          run.To_service.packets_dropped;
        Printf.printf "client deliveries: %d\n" (To_service.deliveries run);
        List.iter
          (fun (t, a) ->
            match a with
            | Vs_action.Newview { proc; view } ->
                Printf.printf "  t=%7.1f newview %s at %d\n" t
                  (Format.asprintf "%a" View.pp view)
                  proc
            | _ -> ())
          (Timed.actions (To_service.vs_trace run));
        if timeline then
          print_string
            (Gcs_apps.Timeline.of_to_service_run ~procs ~width:100 ~until run);
        (match To_service.to_conforms config run with
        | Ok () -> Printf.printf "TO-machine conformance: OK\n"
        | Error e ->
            Printf.printf "TO-machine conformance: FAILED (%s)\n"
              (Format.asprintf "%a" To_trace_checker.pp_error e));
        (match To_service.vs_conforms config run with
        | Ok () -> Printf.printf "VS-machine conformance: OK\n"
        | Error e ->
            Printf.printf "VS-machine conformance: FAILED (%s)\n"
              (Format.asprintf "%a" Vs_trace_checker.pp_error e));
        if dump <> "" then begin
          let write path contents =
            let oc = open_out path in
            output_string oc contents;
            output_string oc "\n";
            close_out oc;
            Printf.printf "wrote %s\n" path
          in
          write (dump ^ ".to")
            (Trace_io.to_to_string (To_service.client_trace run));
          let vs_as_strings =
            Timed.map
              (fun a ->
                Some
                  (match a with
                  | Vs_action.Gpsnd { sender; msg } ->
                      Vs_action.Gpsnd
                        { sender; msg = Format.asprintf "%a" Msg.pp msg }
                  | Vs_action.Gprcv { src; dst; msg } ->
                      Vs_action.Gprcv
                        { src; dst; msg = Format.asprintf "%a" Msg.pp msg }
                  | Vs_action.Safe { src; dst; msg } ->
                      Vs_action.Safe
                        { src; dst; msg = Format.asprintf "%a" Msg.pp msg }
                  | Vs_action.Newview nv -> Vs_action.Newview nv
                  | Vs_action.Createview v -> Vs_action.Createview v
                  | Vs_action.Vs_order { msg; sender; viewid } ->
                      Vs_action.Vs_order
                        {
                          msg = Format.asprintf "%a" Msg.pp msg;
                          sender;
                          viewid;
                        }))
              (To_service.vs_trace run)
          in
          write (dump ^ ".vs") (Trace_io.vs_to_string vs_as_strings)
        end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Simulate the end-to-end TO service under a failure scenario.")
    Term.(
      const run $ n_arg $ delta_arg $ pi_arg $ mu_arg $ seed_arg $ until_arg
      $ partition_arg $ split_arg $ heal_arg $ messages_arg $ timeline_arg
      $ dump_arg)

(* Shared by nemesis / metrics / timeline: an optional built-in scenario
   name, falling back to the seed-generated random schedule. *)
let scenario_pos_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO"
        ~doc:
          "Built-in scenario name (see gcs nemesis --list). Omit to run a \
           random schedule generated from --seed.")

let events_arg =
  Arg.(
    value & opt int 12
    & info [ "events" ] ~docv:"K"
        ~doc:"Fault injections in a random schedule.")

let until_opt_arg =
  Arg.(
    value & opt float (-1.0)
    & info [ "until" ] ~docv:"T"
        ~doc:
          "Simulated time horizon (negative: stabilization + b' + d' + \
           slack, the shortest horizon at which the delivery bound is \
           enforceable).")

module Harness = Gcs_nemesis.Harness
module Scenario = Gcs_nemesis.Scenario

let resolve_scenario ~procs ~events ~seed = function
  | None -> Gcs_nemesis.Gen.scenario ~procs ~events ~seed ()
  | Some name -> (
      match Scenario.find_builtin ~procs name with
      | Some s -> s
      | None ->
          Printf.eprintf
            "error: unknown scenario %s (try gcs nemesis --list)\n" name;
          exit 2)

(* ------------------------------ nemesis ----------------------------- *)

(* The [gcs nemesis] command line that reruns one schedule on its own: a
   built-in by name, a generated schedule by its seed and fault count. *)
let reproduce ~procs ~n ~delta ~pi ~mu ~until ~events (o : Harness.outcome) =
  let name = o.Harness.scenario.Scenario.name in
  Printf.sprintf
    "reproduce with: gcs nemesis%s --seed %d -n %d --delta %g --pi %g --mu %g%s"
    (if Option.is_some (Scenario.find_builtin ~procs name) then " " ^ name
     else Printf.sprintf " --events %d" events)
    o.Harness.seed n delta pi mu
    (match until with None -> "" | Some u -> Printf.sprintf " --until %g" u)

(* A sweep of [count] nemesis schedules, the [i]th given by [schedule i]
   as (seed, events, scenario): one [Harness.run] each on a pool of
   [jobs] domains. The pool runs a chunk of [16 * jobs] schedules at a
   time and each chunk prints as soon as it ends, so a long sweep shows
   progress and holds only its failed outcomes; the output is in
   schedule order and bit-identical at any job count. With [json], one
   JSON object per line and nothing else; otherwise a line per schedule,
   then the full outcome, the metrics and the reproduce command of every
   failure, and a summary. Exits 1 if any schedule fails. *)
let sweep ~config ~until ~jobs ~json ~metrics ~reproduce ~count schedule =
  (* Wall clock measures sweep throughput only; the simulation itself
     runs on virtual time and is untouched by it. *)
  let t0 = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () in
  let chunk = 16 * jobs in
  let rec go start failed =
    if start >= count then List.rev failed
    else begin
      let outcomes =
        Gcs_stdx.Pool.map ~jobs
          (fun (seed, events, scenario) ->
            (events, Harness.run ~config ?until ~seed scenario))
          (List.init (min chunk (count - start)) (fun i -> schedule (start + i)))
      in
      List.iter
        (fun (_, o) ->
          if json then
            print_endline
              (if metrics then Harness.to_json_with_metrics o
               else Harness.to_json o)
          else Format.printf "%a@." Harness.pp_line o)
        outcomes;
      go (start + chunk)
        (List.rev_append
           (List.filter (fun (_, o) -> not (Harness.passed o)) outcomes)
           failed)
    end
  in
  let failed = go 0 [] in
  let wall = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () -. t0 in
  if not json then begin
    List.iter
      (fun (events, o) ->
        Format.printf "%a@." Harness.pp o;
        Printf.printf "FAILING SEED %d metrics: %s\n" o.Harness.seed
          (Gcs_stdx.Metrics.to_json o.Harness.metrics);
        print_endline (reproduce ~events o))
      failed;
    Printf.printf "%d/%d schedules passed in %.2fs (jobs=%d)\n"
      (count - List.length failed)
      count wall jobs
  end;
  if failed <> [] then exit 1

let nemesis_cmd =
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List built-in scenarios.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print each outcome as one JSON object on a line of its own.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Include the run's metrics registry: as a \"metrics\" member \
             with --json, as a table otherwise.")
  in
  let count_arg =
    Arg.(
      value & opt int 1
      & info [ "count" ] ~docv:"K"
          ~doc:
            "Run K schedules at seeds SEED..SEED+K-1 (fanned out over \
             --jobs domains). With a named scenario, the same scenario is \
             rerun under each seed.")
  in
  let run n delta pi mu seed scenario list json metrics events until count jobs
      =
    let vs_config = mk_config n delta pi mu in
    let config = To_service.make_config vs_config in
    let procs = vs_config.Vs_node.procs in
    let until = if until < 0.0 then None else Some until in
    let reproduce = reproduce ~procs ~n ~delta ~pi ~mu ~until in
    let schedule seed =
      (seed, events, resolve_scenario ~procs ~events ~seed scenario)
    in
    if list then
      List.iter
        (fun (name, scenario) ->
          Printf.printf "%-20s %2d steps, stabilizes at t=%.1f\n" name
            (List.length scenario.Scenario.steps)
            (Scenario.stabilization_time scenario))
        (Scenario.builtins ~procs)
    else if count > 1 then
      sweep ~config ~until ~jobs:(resolve_jobs jobs) ~json ~metrics ~reproduce
        ~count (fun i -> schedule (seed + i))
    else begin
      let _, _, scenario = schedule seed in
      let outcome = Harness.run ~config ?until ~seed scenario in
      if json then
        print_endline
          (if metrics then Harness.to_json_with_metrics outcome
           else Harness.to_json outcome)
      else begin
        Format.printf "%a@." Scenario.pp scenario;
        Format.printf "%a@." Harness.pp outcome;
        if metrics then
          Format.printf "%a@." Gcs_stdx.Metrics.pp outcome.Harness.metrics;
        print_endline (reproduce ~events outcome)
      end;
      if not (Harness.passed outcome) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Run the fault-injection harness: a built-in scenario or a \
          seed-reproducible random schedule through the end-to-end TO \
          service, judged by its whole oracle chain: both trace checkers, \
          the post-stabilization delivery bound (Theorem 7.2), batch view \
          boundaries and the node invariants.")
    Term.(
      const run $ n_arg $ delta_arg $ pi_arg $ mu_arg $ seed_arg
      $ scenario_pos_arg $ list_arg $ json_arg $ metrics_arg $ events_arg
      $ until_opt_arg $ count_arg $ jobs_arg)

(* ------------------------------- soak ------------------------------- *)

let soak_cmd =
  let iters_arg =
    Arg.(
      value & opt int 20
      & info [ "iters" ] ~docv:"K" ~doc:"Number of random schedules.")
  in
  let soak_events_arg =
    Arg.(
      value & opt int 0
      & info [ "events" ] ~docv:"E"
          ~doc:
            "Fault injections per schedule (0: vary 8..12 across the batch, \
             mirroring the soak test suite).")
  in
  let run n delta pi mu seed iters events jobs =
    let vs_config = mk_config n delta pi mu in
    let config = To_service.make_config vs_config in
    let procs = vs_config.Vs_node.procs in
    sweep ~config ~until:None ~jobs:(resolve_jobs jobs) ~json:false
      ~metrics:false
      ~reproduce:(reproduce ~procs ~n ~delta ~pi ~mu ~until:None)
      ~count:iters
      (fun i ->
        let seed = seed + (i * 97) in
        let events = if events > 0 then events else 8 + (i mod 5) in
        (seed, events, Gcs_nemesis.Gen.scenario ~procs ~events ~seed ()))
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Soak the end-to-end TO service: a batch of seed-reproducible random \
          nemesis schedules fanned out over a pool of worker domains, each \
          judged like one $(b,gcs nemesis) run. Exits 1 if any schedule \
          fails.")
    Term.(
      const run $ n_arg $ delta_arg $ pi_arg $ mu_arg $ seed_arg $ iters_arg
      $ soak_events_arg $ jobs_arg)

(* ------------------------------ metrics ----------------------------- *)

let metrics_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the registry as a single JSON object.")
  in
  let run n delta pi mu seed scenario events until json =
    let vs_config = mk_config n delta pi mu in
    let config = To_service.make_config vs_config in
    let procs = vs_config.Vs_node.procs in
    let until = if until < 0.0 then None else Some until in
    let scenario = resolve_scenario ~procs ~events ~seed scenario in
    let outcome = Harness.run ~config ?until ~seed scenario in
    if json then
      print_endline
        (Gcs_stdx.Metrics.to_json outcome.Harness.metrics)
    else begin
      Printf.printf "scenario %s (seed %d), simulated until t=%.1f\n"
        outcome.Harness.scenario.Scenario.name seed
        outcome.Harness.until;
      Format.printf "%a@." Gcs_stdx.Metrics.pp
        outcome.Harness.metrics
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one nemesis schedule (built-in or seed-generated) through the \
          end-to-end TO service and print its metrics registry: engine \
          packet/event counters per link status, VS views/tokens/membership \
          rounds, TO bcast-to-brcv latency histogram, and the harness's \
          pre/post-stabilization workload split.")
    Term.(
      const run $ n_arg $ delta_arg $ pi_arg $ mu_arg $ seed_arg
      $ scenario_pos_arg $ events_arg $ until_opt_arg $ json_arg)

(* ------------------------------ timeline ---------------------------- *)

let timeline_cmd =
  let width_arg =
    Arg.(
      value & opt int 100
      & info [ "width" ] ~docv:"COLS" ~doc:"Timeline width in characters.")
  in
  let run n delta pi mu seed scenario events until width =
    let vs_config = mk_config n delta pi mu in
    let config = To_service.make_config vs_config in
    let procs = vs_config.Vs_node.procs in
    let scenario = resolve_scenario ~procs ~events ~seed scenario in
    let until =
      if until < 0.0 then Harness.default_until ~config scenario
      else until
    in
    let workload = Harness.default_workload ~procs () in
    let failures = Scenario.compile ~procs scenario in
    let run = To_service.run config ~workload ~failures ~until ~seed in
    Format.printf "%a@." Scenario.pp scenario;
    print_string (Gcs_apps.Timeline.of_to_service_run ~procs ~width ~until run);
    Printf.printf
      "legend: s bcast, + delivery, V newview; ! on the net row marks a \
       failure-status change; stabilization l=%.1f\n"
      (Scenario.stabilization_time scenario)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Draw an ASCII timeline of one nemesis schedule (built-in or \
          seed-generated): one row per processor with submissions, \
          deliveries and view installations, plus a net row of \
          failure-status changes.")
    Term.(
      const run $ n_arg $ delta_arg $ pi_arg $ mu_arg $ seed_arg
      $ scenario_pos_arg $ events_arg $ until_opt_arg $ width_arg)

(* ------------------------------- fuzz ------------------------------- *)

let fuzz_cmd =
  let execs_arg =
    Arg.(
      value & opt int 500
      & info [ "execs" ] ~docv:"K"
          ~doc:"Execution budget (the fuzzer stops early on a failure).")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Candidates generated per round. Fixed independently of --jobs, \
             so results are bit-identical at any job count.")
  in
  let corpus_arg =
    Arg.(
      value & opt string ""
      & info [ "corpus-out"; "corpus" ] ~docv:"DIR"
          ~doc:
            "Write the final corpus to DIR (one .sched file per entry, \
             written atomically; stale entries from a previous save are \
             removed).")
  in
  let corpus_in_arg =
    Arg.(
      value & opt string ""
      & info [ "corpus-in" ] ~docv:"DIR"
          ~doc:
            "Replay a saved corpus as extra seed schedules. Entries are \
             loaded in name order, truncated or unparsable files are \
             skipped with a warning, and admission minimizes the corpus \
             deterministically (an entry survives only if it still adds \
             coverage).")
  in
  let diff_arg =
    Arg.(
      value & opt string ""
      & info [ "diff" ] ~docv:"PAIR"
          ~doc:
            ("Differential mode: run every schedule on two backends and \
              treat any disagreement in per-node delivered orders as \
              crash-grade. PAIR is one of "
            ^ String.concat ", "
                (List.map
                   (fun p -> "$(b," ^ p.Gcs_fuzz.Differential.name ^ ")")
                   Gcs_fuzz.Differential.all)
            ^ ". Faults are stripped; mutation works the submission \
               sequence and seed."))
  in
  let soak_arg =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:
            "Long-horizon mode: keep fuzzing past failures (each failing \
             input re-enters the corpus with boosted energy); report \
             every failure at the end, shrink the first.")
  in
  let max_minutes_arg =
    Arg.(
      value & opt float 0.0
      & info [ "max-minutes" ] ~docv:"M"
          ~doc:
            "Wall-clock budget: stop at the end of the round running at \
             M minutes (0: unlimited, the --execs budget governs).")
  in
  let snapshot_arg =
    Arg.(
      value & opt string ""
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Write a one-object JSON progress snapshot to FILE \
             (atomically) every --snapshot-every rounds.")
  in
  let snapshot_every_arg =
    Arg.(
      value & opt int 50
      & info [ "snapshot-every" ] ~docv:"K"
          ~doc:"Rounds between --snapshot writes (default 50).")
  in
  let mutant_arg =
    Arg.(
      value & opt string ""
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            "Fuzz against a planted bug (see --list-mutants and \
             --list-diff-mutants). A differential mutant implies its \
             pair's --diff mode.")
  in
  let list_mutants_arg =
    Arg.(
      value & flag
      & info [ "list-mutants" ] ~doc:"List the planted-bug mutants.")
  in
  let list_diff_mutants_arg =
    Arg.(
      value & flag
      & info [ "list-diff-mutants" ]
          ~doc:
            "List the planted divergence-only mutants (found only by \
             --diff mode).")
  in
  let service_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                (List.map (fun s -> (s, s)) Gcs_conformance.Services.names)))
          None
      & info [ "service" ] ~docv:"S"
          ~doc:
            "System under test, each with its own oracle chain: \
             $(b,vstoto) (the full VStoTO stack, the default), $(b,skeen) \
             (the Skeen timestamp total-order backend) or $(b,sequencer) \
             (the fixed-sequencer baseline). A mutant name in \
             $(b,--mutant) implies its service; naming another service \
             is an error.")
  in
  let expect_arg =
    Arg.(
      value & flag
      & info [ "expect-failure" ]
          ~doc:
            "Invert the exit status: succeed iff a failure was found \
             (canary mode — CI runs the planted mutants this way).")
  in
  let repro_arg =
    Arg.(
      value & opt string ""
      & info [ "repro" ] ~docv:"FILE"
          ~doc:
            "Write the shrunk reproducer schedule to FILE and its replayed \
             client trace to FILE.trace (replayable with gcs fuzz --replay \
             FILE / gcs check to FILE.trace).")
  in
  let replay_arg =
    Arg.(
      value & opt string ""
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Execute one schedule file and report its verdict instead of \
             fuzzing.")
  in
  let shrink_arg =
    Arg.(
      value & opt int 600
      & info [ "shrink-budget" ] ~docv:"K"
          ~doc:"Oracle executions the shrinker may spend.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the run statistics as one JSON object.")
  in
  let write_file path contents =
    Gcs_stdx.Fileio.write_atomic ~path contents
  in
  let run n delta pi mu seed jobs execs batch corpus corpus_in diff soak
      max_minutes snapshot snapshot_every mutant list_mutants list_diff_mutants
      service expect repro replay shrink_budget json =
    if list_mutants then
      List.iter
        (fun m ->
          Printf.printf "%-24s %s (flagged by: %s)\n"
            (Gcs_conformance.Service.mutant_name m)
            (Gcs_conformance.Service.mutant_doc m)
            (String.concat ", " (Gcs_conformance.Service.mutant_checks m)))
        Gcs_fuzz.Mutant.all
    else if list_diff_mutants then
      List.iter
        (fun m ->
          Printf.printf "%-24s %s (pair: %s)\n" m.Gcs_fuzz.Diff_mutant.name
            m.Gcs_fuzz.Diff_mutant.doc
            m.Gcs_fuzz.Diff_mutant.pair.Gcs_fuzz.Differential.name)
        Gcs_fuzz.Diff_mutant.all
    else begin
      let vs_config = mk_config n delta pi mu in
      let config = To_service.make_config vs_config in
      let service =
        Option.map
          (fun name -> Option.get (Gcs_conformance.Services.find name))
          service
      in
      let mutant, diff_mutant =
        match mutant with
        | "" -> (None, None)
        | name -> (
            match Gcs_fuzz.Mutant.find name with
            | Some m -> (Some m, None)
            | None -> (
                match Gcs_fuzz.Diff_mutant.find name with
                | Some m -> (m.Gcs_fuzz.Diff_mutant.mutant, Some m)
                | None ->
                    Printf.eprintf
                      "error: unknown mutant %s (try --list-mutants, \
                       --list-diff-mutants)\n"
                      name;
                    exit 2))
      in
      let tamper =
        Option.bind diff_mutant (fun m -> m.Gcs_fuzz.Diff_mutant.tamper)
      in
      let withholds_outputs =
        Option.map (fun m -> m.Gcs_fuzz.Diff_mutant.withholds_outputs)
          diff_mutant
      in
      (* A planted bug instruments one service's handlers: pairing it with
         another service (or a pair with another candidate) would fuzz a
         clean system and report nothing, so the runners refuse it with
         Invalid_argument before anything runs. *)
      let refusing f =
        try f ()
        with Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
      in
      let pair =
        match diff with
        | "" -> Option.map (fun m -> m.Gcs_fuzz.Diff_mutant.pair) diff_mutant
        | s -> (
            match Gcs_fuzz.Differential.of_name s with
            | None ->
                Printf.eprintf "error: unknown pair %s (one of: %s)\n" s
                  (String.concat ", "
                     (List.map
                        (fun p -> p.Gcs_fuzz.Differential.name)
                        Gcs_fuzz.Differential.all));
                exit 2
            | Some p ->
                refusing (fun () ->
                    Option.iter
                      (fun m -> Gcs_fuzz.Diff_mutant.check m p)
                      diff_mutant);
                Some p)
      in
      if replay <> "" then begin
        let contents =
          let ic = open_in replay in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          s
        in
        match Gcs_fuzz.Input.of_string contents with
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 2
        | Ok input -> (
            let obs =
              refusing (fun () ->
                  match pair with
                  | Some p ->
                      Gcs_fuzz.Differential.execute ?tamper ?withholds_outputs
                        ?mutant ~config p
                        input
                  | None ->
                      Gcs_fuzz.Runner.execute ?service ?mutant ~config input)
            in
            match obs.Gcs_fuzz.Runner.verdict with
            | None ->
                Printf.printf "replay %s: PASS (%d deliveries, %d features)\n"
                  replay obs.Gcs_fuzz.Runner.deliveries
                  (Gcs_fuzz.Coverage.cardinal obs.Gcs_fuzz.Runner.coverage)
            | Some f ->
                Printf.printf "replay %s: FAIL [%s]\n%s\n" replay
                  f.Gcs_fuzz.Runner.check f.Gcs_fuzz.Runner.detail;
                exit 1)
      end
      else begin
        let jobs = resolve_jobs jobs in
        let seeds =
          if corpus_in = "" then []
          else begin
            let inputs, warnings = Gcs_fuzz.Corpus.load ~dir:corpus_in in
            List.iter
              (fun w -> Printf.eprintf "corpus-in: warning: %s\n%!" w)
              warnings;
            if not json then
              Printf.printf "corpus-in: replaying %d entries from %s\n"
                (List.length inputs) corpus_in;
            inputs
          end
        in
        (* The soak wall budget and snapshot timestamps are operator
           telemetry about real elapsed time, not simulation state — the
           same sanctioned sink as the bench harness's wall clocks. *)
        let wall_now () = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () in
        let started = wall_now () in
        let should_stop =
          if max_minutes <= 0.0 then None
          else Some (fun () -> wall_now () -. started >= max_minutes *. 60.0)
        in
        let progress =
          let console s =
            if (not json) && s.Gcs_fuzz.Fuzz.rounds mod 50 = 0 then
              Printf.printf "  execs %5d  corpus %3d  features %4d\n%!"
                s.Gcs_fuzz.Fuzz.execs s.Gcs_fuzz.Fuzz.corpus_size
                s.Gcs_fuzz.Fuzz.features
          in
          let snap s =
            if
              snapshot <> ""
              && s.Gcs_fuzz.Fuzz.rounds mod max 1 snapshot_every = 0
            then
              Gcs_stdx.Fileio.write_atomic ~path:snapshot
                (Gcs_fuzz.Fuzz.snapshot_to_json s
                   ~wall_s:(wall_now () -. started))
          in
          Some
            (fun s ->
              console s;
              snap s)
        in
        let outcome =
          refusing (fun () ->
              Gcs_fuzz.Fuzz.run ?service ?mutant ?tamper ?withholds_outputs
                ?pair ~seeds ~jobs
                ~batch ~shrink_budget ~stop_on_failure:(not soak) ?should_stop
                ?progress ~config ~seed ~execs ())
        in
        if json then print_endline (Gcs_fuzz.Fuzz.stats_to_json outcome)
        else begin
          Printf.printf
            "fuzz: %d execs in %d rounds, corpus %d, %d features (seed %d, \
             jobs %d)\n"
            outcome.Gcs_fuzz.Fuzz.stats.Gcs_fuzz.Fuzz.execs
            outcome.Gcs_fuzz.Fuzz.stats.Gcs_fuzz.Fuzz.rounds
            outcome.Gcs_fuzz.Fuzz.stats.Gcs_fuzz.Fuzz.corpus_size
            outcome.Gcs_fuzz.Fuzz.stats.Gcs_fuzz.Fuzz.features seed jobs;
          (if soak then
             let tally = Hashtbl.create 8 in
             List.iter
               (fun (_, f) ->
                 let c = f.Gcs_fuzz.Runner.check in
                 Hashtbl.replace tally c
                   (1 + Option.value ~default:0 (Hashtbl.find_opt tally c)))
               outcome.Gcs_fuzz.Fuzz.failures;
             Printf.printf "soak: %d failures%s\n"
               (List.length outcome.Gcs_fuzz.Fuzz.failures)
               (if Hashtbl.length tally = 0 then ""
                else
                  Printf.sprintf " (%s)"
                    (String.concat ", "
                       (List.map
                          (fun (c, k) -> Printf.sprintf "%s: %d" c k)
                          (List.sort compare
                             (Hashtbl.fold
                                (fun c k acc -> (c, k) :: acc)
                                tally []))))));
          match outcome.Gcs_fuzz.Fuzz.failure with
          | None -> Printf.printf "no failures found\n"
          | Some (input, f) -> (
              Printf.printf "FAILURE [%s] on a %d-event schedule:\n%s\n"
                f.Gcs_fuzz.Runner.check
                (Gcs_fuzz.Input.events input)
                f.Gcs_fuzz.Runner.detail;
              match outcome.Gcs_fuzz.Fuzz.shrunk with
              | None -> ()
              | Some s ->
                  Printf.printf "shrunk to %d events in %d oracle execs:\n"
                    (Gcs_fuzz.Input.events s.Gcs_fuzz.Shrink.input)
                    s.Gcs_fuzz.Shrink.execs;
                  List.iter
                    (fun line -> Printf.printf "  %s\n" line)
                    s.Gcs_fuzz.Shrink.log;
                  print_string
                    (Gcs_fuzz.Input.to_string s.Gcs_fuzz.Shrink.input))
        end;
        if corpus <> "" then begin
          Gcs_fuzz.Corpus.save ~dir:corpus
            (List.map
               (fun e -> e.Gcs_fuzz.Fuzz.input)
               outcome.Gcs_fuzz.Fuzz.corpus);
          if not json then
            Printf.printf "wrote %d corpus entries to %s\n"
              (List.length outcome.Gcs_fuzz.Fuzz.corpus)
              corpus
        end;
        (match (outcome.Gcs_fuzz.Fuzz.shrunk, repro) with
        | Some s, file when file <> "" -> (
            let input = s.Gcs_fuzz.Shrink.input in
            write_file file (Gcs_fuzz.Input.to_string input);
            match pair with
            | Some _ ->
                (* A differential reproducer has two traces, not one;
                   the schedule alone replays with gcs fuzz --diff
                   --replay. *)
                if not json then Printf.printf "wrote %s\n" file
            | None ->
                let trace, _ =
                  Gcs_fuzz.Runner.replay ?service ?mutant ~config input
                in
                write_file (file ^ ".trace")
                  (Trace_io.to_to_string trace ^ "\n");
                if not json then
                  Printf.printf "wrote %s and %s.trace\n" file file)
        | _ -> ());
        let found = Option.is_some outcome.Gcs_fuzz.Fuzz.failure in
        if expect <> found then exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided schedule fuzzing of the end-to-end TO service: \
          mutate nemesis schedules + workloads + engine seeds under an \
          abstract-state coverage power schedule, execute candidate batches \
          on a domain pool, check every oracle (trace conformance, the \
          Theorem 7.2 delivery bound, node-local invariants), and \
          delta-debug the first failing schedule to a locally minimal \
          reproducer. Deterministic for a given --seed at any --jobs. \
          With --diff, every backend becomes an oracle: each schedule \
          runs on two backends and any divergence in per-node delivered \
          orders is crash-grade; --soak with --corpus-in/--corpus-out \
          turns the mode into a resumable long-horizon campaign.")
    Term.(
      const run $ n_arg $ delta_arg $ pi_arg $ mu_arg $ seed_arg $ jobs_arg
      $ execs_arg $ batch_arg $ corpus_arg $ corpus_in_arg $ diff_arg
      $ soak_arg $ max_minutes_arg $ snapshot_arg $ snapshot_every_arg
      $ mutant_arg $ list_mutants_arg $ list_diff_mutants_arg $ service_arg
      $ expect_arg $ repro_arg $ replay_arg $ shrink_arg $ json_arg)

(* ------------------------------- lint ------------------------------- *)

let lint_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the report as a single JSON object ({findings, \
             suppressed, files}).")
  in
  let root_arg =
    Arg.(
      value & opt string ""
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Repository root to scan (default: the nearest ancestor of the \
             working directory containing dune-project).")
  in
  let rules_arg =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"List the rules and their one-line rationale.")
  in
  let run json root rules =
    if rules then
      List.iter
        (fun (id, description) -> Printf.printf "%-4s %s\n" id description)
        Gcs_lint.Lint.rules
    else begin
      let root =
        match (root, Gcs_lint.Driver.find_root ()) with
        | "", Some r -> r
        | "", None ->
            Printf.eprintf
              "error: no dune-project above the working directory; pass \
               --root\n";
            exit 2
        | r, _ -> r
      in
      let report =
        try Gcs_lint.Driver.run ~root
        with Sys_error msg ->
          Printf.eprintf "error: %s (is --root a repository root?)\n" msg;
          exit 2
      in
      if json then
        print_endline (Gcs_stdx.Jsonx.encode (Gcs_lint.Driver.to_json report))
      else Format.printf "%a" Gcs_lint.Driver.pp report;
      if not (Gcs_lint.Driver.clean report) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Determinism, totality & domain-safety static analysis over lib/, \
          bin/, bench/ and test/: unordered Hashtbl iteration (D1), entropy \
          and wall-clock sources (D2), polymorphic structural ops in the \
          proof-critical layers (D3), partial stdlib functions (P1), \
          swallowed exceptions (P2), cross-domain closure writes (C1), \
          exception-unsafe Mutex sections (C2), atomic read-modify-writes \
          (C3), blocking under a held lock and static lock-order cycles \
          (C4), stale suppressions (A1) and missing interfaces (M1). Sites \
          carrying [@gcs.lint.allow \"RULE\"] are reported separately and \
          do not fail the run. Exits 1 on any non-suppressed finding.")
    Term.(const run $ json_arg $ root_arg $ rules_arg)

(* ----------------------------- lockcheck ---------------------------- *)

let lockcheck_cmd =
  let out_arg =
    Arg.(
      value & opt string ""
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the observed lock graph (locks, edges, cycles, \
             contention) as JSON to $(docv).")
  in
  let run n seed out =
    let module Lock = Gcs_stdx.Lock in
    let module Suite = Gcs_nemesis.Suite in
    let metrics = Gcs_stdx.Metrics.create () in
    let registry = Lock.registry ~metrics () in
    (* The same conformance workload the transport gate runs, on a bus
       whose every lock (status matrix, trace, delay wheel, observe
       serializer, one per mailbox) records into [registry]. *)
    let backend = Gcs_transport.Bus.backend ~lock_registry:registry () in
    let profile =
      {
        (Suite.bus_profile ~n Gcs_conformance.Services.vstoto) with
        Suite.backend;
      }
    in
    let outcomes = Suite.run_all profile ~seed in
    List.iter (Format.printf "%a@." Harness.pp_line) outcomes;
    let graph = Lock.graph registry in
    Format.printf "%a" Lock.pp_graph graph;
    if not (String.equal out "") then begin
      let oc = open_out out in
      output_string oc (Gcs_stdx.Jsonx.encode (Lock.graph_to_json graph));
      output_char oc '\n';
      close_out oc;
      Printf.printf "lock graph written to %s\n" out
    end;
    let failed_cases = List.filter (fun o -> not (Harness.passed o)) outcomes in
    let inverted = not (List.is_empty graph.Lock.cycles) in
    if inverted then
      Printf.printf
        "lockcheck: FAIL — observed lock-order cycle(s); two domains \
         acquire these locks in conflicting orders\n"
    else if not (List.is_empty failed_cases) then
      Printf.printf "lockcheck: FAIL — %d conformance case(s) failed under \
                     instrumentation\n"
        (List.length failed_cases)
    else
      Printf.printf
        "lockcheck: OK — %d locks, %d distinct edges, no order inversion\n"
        (List.length graph.Lock.locks)
        (List.length graph.Lock.edges);
    if inverted || not (List.is_empty failed_cases) then exit 1
  in
  Cmd.v
    (Cmd.info "lockcheck"
       ~doc:
         "Dynamic lock-order gate: run the bus conformance workload with \
          every bus lock enrolled in a Gcs_stdx.Lock registry, record \
          which locks each domain acquires while holding which others, \
          and fail on any cycle in the observed acquisition graph (a \
          deadlock under the right interleaving) or any conformance \
          failure under instrumentation. The observed graph \
          cross-validates the static C4 lock-order analysis of gcs lint; \
          --out saves it as a JSON artifact.")
    Term.(const run $ n_arg $ seed_arg $ out_arg)

(* ------------------------------- spec ------------------------------- *)

let spec_cmd =
  let steps_arg =
    Arg.(
      value & opt int 300
      & info [ "steps" ] ~docv:"K" ~doc:"Steps per execution.")
  in
  let runs_arg =
    Arg.(
      value & opt int 20
      & info [ "runs" ] ~docv:"K" ~doc:"Number of random executions.")
  in
  let run n steps runs seed =
    let open Gcs_automata in
    let procs = Proc.all ~n in
    let params =
      Vstoto_system.make_params ~procs ~p0:procs
        ~quorums:(Quorum.majorities ~n) ()
    in
    let automaton = Vstoto_system.automaton params in
    let values = List.init 6 (fun i -> Printf.sprintf "x%d" i) in
    let scheduler =
      Scheduler.weighted automaton
        ~inject:(Vstoto_system.inject params ~values)
        ~inject_weight:0.3
    in
    let failures = ref 0 in
    for i = 0 to runs - 1 do
      let prng = Gcs_stdx.Prng.create (seed + i) in
      let e = Exec.run automaton ~scheduler ~steps ~prng in
      (match Invariant.first_violation (Vstoto_invariants.all params) e with
      | None -> ()
      | Some v ->
          incr failures;
          Printf.printf "seed %d: invariant %s violated at step %d: %s\n"
            (seed + i) v.Invariant.invariant v.Invariant.step_index
            v.Invariant.detail);
      match To_simulation.check_execution params e with
      | Ok () -> ()
      | Error msg ->
          incr failures;
          Printf.printf "seed %d: simulation failure: %s\n" (seed + i) msg
    done;
    if !failures = 0 then
      Printf.printf
        "%d executions x %d steps: all Section 6 invariants hold and the \
         forward simulation to TO-machine checks.\n"
        runs steps
    else Printf.printf "%d failures.\n" !failures
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:
         "Randomly execute VStoTO over the VS-machine specification, checking \
          the Section 6 invariants and the forward simulation.")
    Term.(const run $ n_arg $ steps_arg $ runs_arg $ seed_arg)

(* ------------------------------- check ------------------------------ *)

let check_cmd =
  let layer_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("to", `To); ("vs", `Vs) ])) None
      & info [] ~docv:"LAYER" ~doc:"Which specification to check: to or vs.")
  in
  let file_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file (see gcs run --dump).")
  in
  let p0_arg =
    Arg.(
      value & opt int (-1)
      & info [ "p0" ] ~docv:"K"
          ~doc:"Size of the initial membership P0 (default: all).")
  in
  let run layer file n p0 =
    let contents =
      let ic = open_in file in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s
    in
    let procs = Proc.all ~n in
    let p0 = if p0 < 0 then procs else Proc.all ~n:p0 in
    match layer with
    | `To -> (
        match Trace_io.to_of_string contents with
        | Error e ->
            Printf.printf "parse error: %s\n" e;
            exit 2
        | Ok trace -> (
            let params = { To_machine.procs; equal_value = Value.equal } in
            match
              To_trace_checker.check params
                (List.map snd (Timed.actions trace))
            with
            | Ok () ->
                Printf.printf
                  "%s: %d events, TO-machine conformance OK\n" file
                  (List.length trace)
            | Error err ->
                Printf.printf "%s: REJECTED (%s)\n" file
                  (Format.asprintf "%a" To_trace_checker.pp_error err);
                exit 1))
    | `Vs -> (
        match Trace_io.vs_of_string contents with
        | Error e ->
            Printf.printf "parse error: %s\n" e;
            exit 2
        | Ok trace -> (
            let params =
              {
                Vs_machine.procs;
                p0;
                equal_msg = String.equal;
                weak = false;
              }
            in
            match
              Vs_trace_checker.check params
                (List.map snd (Timed.actions trace))
            with
            | Ok () ->
                Printf.printf
                  "%s: %d events, VS-machine conformance OK\n" file
                  (List.length trace)
            | Error err ->
                Printf.printf "%s: REJECTED (%s)\n" file
                  (Format.asprintf "%a" Vs_trace_checker.pp_error err);
                exit 1))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Conformance-check a dumped (or externally produced) trace against \
          TO-machine or VS-machine.")
    Term.(const run $ layer_arg $ file_arg $ n_arg $ p0_arg)

(* ------------------------------- bus -------------------------------- *)

(* Run a replicated application over the real multi-domain bus transport:
   every processor is an OCaml domain, packets are wire-serialized, time
   is the wall clock. The timing profile is the differential suite's
   anchored one (δ = 5 s, π = 0.15 s, μ huge): the whole workload is
   preloaded at time zero, the token orders it, and the run stops as soon
   as every replica has reported everything. *)

let bus_cmd =
  let module Kv_rsm = Gcs_apps.Rsm.Make (Gcs_apps.Kv_store) in
  let module Book_rsm = Gcs_apps.Rsm.Make (Gcs_apps.Order_book) in
  let run n seed ops app =
    let procs = Proc.all ~n in
    let config =
      To_service.make_config
        { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 }
    in
    let prng = Gcs_stdx.Prng.create seed in
    let workload =
      List.init ops (fun i ->
          let origin = i mod n in
          match app with
          | `Kv ->
              let key = Printf.sprintf "k%d" (Gcs_stdx.Prng.int prng 8) in
              let op =
                if Gcs_stdx.Prng.int prng 10 = 0 then Gcs_apps.Kv_store.Del key
                else Gcs_apps.Kv_store.Put (key, Printf.sprintf "v%d" i)
              in
              Kv_rsm.submit origin op 0.0
          | `Book ->
              let side =
                if Gcs_stdx.Prng.int prng 2 = 0 then Gcs_apps.Order_book.Buy
                else Gcs_apps.Order_book.Sell
              in
              let order =
                {
                  Gcs_apps.Order_book.id = i;
                  side;
                  price = 95 + Gcs_stdx.Prng.int prng 11;
                  qty = 1 + Gcs_stdx.Prng.int prng 9;
                }
              in
              Book_rsm.submit origin (Gcs_apps.Order_book.Submit order) 0.0)
    in
    let observe, stop =
      Gcs_conformance.Service.drained
        (module Gcs_conformance.Services.Vstoto)
        config ~workload ~after:Float.neg_infinity
    in
    let t0 = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () in
    let run =
      To_service.run_on ?observe ~stop
        ~backend:(Gcs_transport.Bus.backend ())
        config ~workload ~failures:[] ~until:120.0 ~seed
    in
    let wall = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () -. t0 in
    let actions = List.map snd (Timed.actions (To_service.client_trace run)) in
    let deliveries = To_service.deliveries run in
    Printf.printf
      "bus run: n=%d seed=%d app=%s  %d ops submitted, %d deliveries\n" n seed
      (match app with `Kv -> "kv" | `Book -> "book")
      ops deliveries;
    Printf.printf
      "         %.2f wall s, %d packets  ->  %.0f client msgs/sec, %.0f \
       packets/sec\n"
      wall run.To_service.packets_sent
      (float_of_int deliveries /. wall)
      (float_of_int run.To_service.packets_sent /. wall);
    let describe_replicas pp_state states consistent =
      List.iter
        (fun (p, state, applied) ->
          Printf.printf "  replica %d: %d ops applied, %s\n" p applied
            (pp_state state))
        states;
      if consistent then begin
        Printf.printf "replicas CONSISTENT\n";
        `Ok ()
      end
      else `Error (false, "replicas inconsistent: divergent states")
    in
    match app with
    | `Kv -> (
        match Kv_rsm.replica_states procs actions with
        | Error e -> `Error (false, "undecodable operation: " ^ e)
        | Ok states ->
            describe_replicas
              (fun s ->
                Printf.sprintf "%d keys" (List.length (Gcs_apps.Kv_store.bindings s)))
              states
              (Kv_rsm.consistent procs actions))
    | `Book -> (
        match Book_rsm.replica_states procs actions with
        | Error e -> `Error (false, "undecodable operation: " ^ e)
        | Ok states ->
            describe_replicas
              (fun (s : Gcs_apps.Order_book.t) ->
                Printf.sprintf "best bid %s / ask %s, %d trades"
                  (match Gcs_apps.Order_book.best_bid s with
                  | Some p -> string_of_int p
                  | None -> "-")
                  (match Gcs_apps.Order_book.best_ask s with
                  | Some p -> string_of_int p
                  | None -> "-")
                  (Gcs_apps.Order_book.trade_count s))
              states
              (Book_rsm.consistent procs actions))
  in
  let ops_arg =
    Arg.(
      value & opt int 60
      & info [ "ops" ] ~docv:"K" ~doc:"Client operations to submit.")
  in
  let app_arg =
    Arg.(
      value
      & opt (enum [ ("kv", `Kv); ("book", `Book) ]) `Kv
      & info [ "app" ] ~docv:"APP"
          ~doc:"Replicated application: $(b,kv) store or order $(b,book).")
  in
  Cmd.v
    (Cmd.info "bus"
       ~doc:
         "Serve a replicated application over the real multi-domain bus \
          transport (one OCaml domain per processor, wire-serialized \
          packets, wall-clock time) and check replica consistency.")
    Term.(ret (const run $ n_arg $ seed_arg $ ops_arg $ app_arg))

(* ------------------------------- load ------------------------------- *)

(* Open-loop load generator. Submission times are fixed up front at a
   constant per-processor rate (or all preloaded at t=0 with --rate 0)
   and never wait for deliveries, so the offered load is independent of
   how the service keeps up — the classic open-loop discipline. The
   batch window coalesces whatever queues between flushes into a single
   Msg.Batch gpsnd; the report shows wall-clock client throughput and
   the realized batch-size distribution, the same numbers bench section
   X20 records and gates. *)
let load_cmd =
  (* One sim and one bus entry per registered service; the default
     service (the registry's first) keeps the bare transport names. *)
  let backends =
    List.concat
      (List.mapi
         (fun i service ->
           let name = Gcs_conformance.Service.name service in
           if i = 0 then [ ("sim", (service, `Sim)); ("bus", (service, `Bus)) ]
           else [ (name, (service, `Sim)); (name ^ "-bus", (service, `Bus)) ])
         Gcs_conformance.Services.all)
  in
  let run backend n count rate window seed json =
    let (module S : Gcs_conformance.Service.S), transport =
      List.assoc backend backends
    in
    let procs = Proc.all ~n in
    let vs_config =
      match transport with
      | `Sim -> { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }
      | `Bus -> { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 }
    in
    (* Services without a batching layer order every submission on its
       own: --window does not apply and the batch and token columns are
       structurally zero. *)
    let batch_window =
      if not S.batching then None
      else if window < 0.0 then
        Some (match transport with `Sim -> 2.0 | `Bus -> 0.02)
      else if window = 0.0 then None
      else Some window
    in
    let config = S.configure (To_service.make_config ?batch_window vs_config) in
    let workload =
      List.concat_map
        (fun p ->
          List.init count (fun k ->
              let at = if rate <= 0.0 then 0.0 else float_of_int k /. rate in
              (at, p, S.lift ~dests:[] config p (Printf.sprintf "v%d.%d" p k))))
        procs
    in
    let total = n * count in
    let observe, stop =
      Gcs_conformance.Service.drained (module S) config ~workload
        ~after:Float.neg_infinity
    in
    let offered = if rate <= 0.0 then 0.0 else float_of_int count /. rate in
    let until =
      match transport with `Sim -> offered +. 500.0 | `Bus -> offered +. 60.0
    in
    let backend_impl =
      match transport with
      | `Sim -> Gcs_conformance.Service.sim (module S) ~delta:vs_config.Vs_node.delta
      | `Bus -> Gcs_transport.Bus.backend ()
    in
    let metrics = Gcs_stdx.Metrics.create () in
    let t0 = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () in
    let run =
      Gcs_conformance.Service.run (module S) ~metrics ?observe ~stop
        ~backend:backend_impl config ~workload ~failures:[] ~until ~seed
    in
    let wall = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () -. t0 in
    let client_trace = S.client_trace run.Gcs_transport.Iface.trace in
    let _, deliveries = Gcs_conformance.Service.tally client_trace in
    (* bcast→brcv latency in the run's clock: model time units on the
       simulator, seconds on the bus. *)
    let latency_p50, latency_p99 =
      let observed = ref [] in
      To_service.iter_latencies
        (fun l -> observed := l :: !observed)
        client_trace;
      let sorted = Array.of_list !observed in
      Array.sort Float.compare sorted;
      ( Gcs_stdx.Metrics.nearest_rank sorted 0.5,
        Gcs_stdx.Metrics.nearest_rank sorted 0.99 )
    in
    let latency_unit = match transport with `Sim -> "sim" | `Bus -> "s" in
    let expected = n * total in
    let client_rate = float_of_int deliveries /. wall in
    let batches, batch_mean, batch_max =
      match Gcs_stdx.Metrics.histogram metrics "to.batch_size" with
      | Some (_, c, sum, max_v) when c > 0 ->
          (c, sum /. float_of_int c, max_v)
      | _ -> (0, 0.0, 0.0)
    in
    (* Heartbeat launches plus immediate relaunches: the rotation cost
       of the delivered load. *)
    let tokens = Gcs_stdx.Metrics.counter metrics "vs.tokens_launched" in
    let packets = run.Gcs_transport.Iface.packets_sent in
    let rate_text = if rate <= 0.0 then "preload" else Printf.sprintf "%g" rate in
    if json then
      let num x = Gcs_stdx.Jsonx.Num x and int = Gcs_stdx.Jsonx.int in
      print_endline
        (Gcs_stdx.Jsonx.encode
           (Gcs_stdx.Jsonx.Obj
              [
                ("backend", Gcs_stdx.Jsonx.Str backend);
                ("n", int n);
                ("count_per_proc", int count);
                ("rate_per_proc", num rate);
                ( "batch_window",
                  match batch_window with
                  | None -> Gcs_stdx.Jsonx.Null
                  | Some w -> num w );
                ("submitted", int total);
                ("client_deliveries", int deliveries);
                ("expected_deliveries", int expected);
                ("wall_s", num wall);
                ("client_msgs_per_s", num client_rate);
                ("latency_p50", num latency_p50);
                ("latency_p99", num latency_p99);
                ("latency_unit", Gcs_stdx.Jsonx.Str latency_unit);
                ("packets_sent", int packets);
                ("gpsnd_batches", int batches);
                ("batch_mean", num batch_mean);
                ("batch_max", num batch_max);
                ("tokens_launched", int tokens);
              ]))
    else begin
      if S.batching then
        Printf.printf
          "load: backend=%s n=%d count=%d/proc rate=%s/proc window=%s\n"
          backend n count rate_text
          (match batch_window with
          | None -> "off"
          | Some w -> Printf.sprintf "%g" w)
      else
        Printf.printf "load: backend=%s n=%d count=%d/proc rate=%s/proc\n"
          backend n count rate_text;
      Printf.printf
        "  %d submitted, %d/%d deliveries in %.2f wall s  ->  %.0f client \
         msgs/sec\n"
        total deliveries expected wall client_rate;
      Printf.printf "  bcast->brcv latency p50 %.4g, p99 %.4g (%s)\n"
        latency_p50 latency_p99 latency_unit;
      if batches > 0 || tokens > 0 then
        Printf.printf
          "  %d packets, %d gpsnd batches (mean %.1f, max %.0f), %d tokens \
           launched\n"
          packets batches batch_mean batch_max tokens
      else Printf.printf "  %d packets\n" packets
    end;
    if deliveries < expected then
      `Error
        ( false,
          Printf.sprintf "incomplete: %d of %d deliveries before the horizon"
            deliveries expected )
    else `Ok ()
  in
  let backend_arg =
    Arg.(
      value
      & opt (enum (List.map (fun (b, _) -> (b, b)) backends)) "sim"
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "Total-order service and transport: $(b,sim)/$(b,bus) drive the \
             VStoTO stack (virtual time vs real domains); $(b,skeen), \
             $(b,skeen-bus), $(b,sequencer) and $(b,sequencer-bus) drive \
             the Skeen timestamp backend and the fixed sequencer on the same \
             two transports ($(b,--window) does not apply — neither has a \
             batching layer).")
  in
  let count_arg =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"K"
          ~doc:"Client values submitted per processor.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Open-loop submission rate per processor (values per second of \
             model time; 0: preload everything at t=0).")
  in
  let window_arg =
    Arg.(
      value & opt float (-1.0)
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Batch window: queued values coalesce into one gpsnd per flush \
             (negative: backend default, 0: batching off).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print one JSON object instead.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop load generator: fixed-rate client submissions through \
          any total-order service on the sim or bus backend, reporting \
          wall-clock client throughput, p50/p99 bcast→brcv latency, batch \
          sizes and tokens launched.")
    Term.(
      ret
        (const run $ backend_arg $ n_arg $ count_arg $ rate_arg $ window_arg
       $ seed_arg $ json_arg))

let () =
  let doc = "Partitionable group communication service reproduction" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "gcs" ~doc)
          [
            bounds_cmd;
            run_cmd;
            spec_cmd;
            check_cmd;
            nemesis_cmd;
            fuzz_cmd;
            soak_cmd;
            metrics_cmd;
            timeline_cmd;
            lint_cmd;
            lockcheck_cmd;
            bus_cmd;
            load_cmd;
          ]))
