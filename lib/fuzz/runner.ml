open Gcs_core
open Gcs_nemesis
module Service = Gcs_conformance.Service
module Services = Gcs_conformance.Services

type failure = { check : string; detail : string }

type observation = {
  coverage : Coverage.t;
  verdict : failure option;
  bcasts : int;
  deliveries : int;
  events_processed : int;
}

let counter_features metrics ~names ~tag ~bcasts ~deliveries acc =
  let acc =
    List.fold_left
      (fun acc name ->
        Coverage.add acc
          (Printf.sprintf "m:%s=%d" name
             (Service.bucket (Gcs_stdx.Metrics.counter metrics name))))
      acc names
  in
  let acc =
    Coverage.add acc
      (Printf.sprintf "m:%s.bcasts=%d" tag (Service.bucket bcasts))
  in
  Coverage.add acc
    (Printf.sprintf "m:%s.deliveries=%d" tag (Service.bucket deliveries))

let subject ?service ?mutant () =
  match (service, mutant) with
  | Some s, Some m ->
      Service.check_mutant s m;
      s
  | Some s, None -> s
  | None, Some m -> Service.mutant_service m
  | None, None -> Services.vstoto

(* ------------------------------ execute ------------------------------ *)

(* One coverage-instrumented run through the scenario runner: transition
   features through [observe], state snapshots at the service's quiescent
   points plus the final states, and the bucketed run-level counters. On
   the bus, [observe] calls are serialized by the backend, so the
   accumulators need no extra locking. With [drain], the run ends once
   every destination has delivered the whole workload, and by [drain] at
   the latest. The runner turns a raised exception into a [crash]
   verdict, with an empty trace. *)
let run (type c n i p o) ((module S) : (c, n, i, p, o) Service.s)
    (mutant : (c, n, i, p, o) Service.mutant option) ?backend ?drain ?dests
    ~config input =
  let delta = config.Gcs_impl.To_service.vs.Gcs_impl.Vs_node.delta in
  let config = S.configure config in
  let procs = S.procs config in
  let scenario = Input.scenario ~procs input in
  let workload =
    List.map
      (fun (t, p, v) -> (t, p, S.lift ?dests config p v))
      input.Input.workload
  in
  let workload_end =
    List.fold_left (fun acc (t, _, _) -> Float.max acc t) 0.0 workload
  in
  let until =
    S.settle config
      ~stabilization:(Scenario.stabilization_time scenario)
      ~workload_end
    +. S.slack ~delta
  in
  let until, drained, stop =
    match drain with
    | None -> (until, None, None)
    | Some horizon ->
        let observe, stop =
          Service.drained (module S) config ~workload ~after:Float.neg_infinity
        in
        (Float.min until horizon, observe, Some stop)
  in
  let cov = ref Coverage.empty in
  let snaps = ref [] in
  let trace = ref [] in
  let observe me pre post =
    Option.iter (fun f -> f me pre post) drained;
    cov :=
      List.fold_left Coverage.add !cov (S.transition_features config me pre post);
    if S.snapshot_point pre post then snaps := S.snapshot post :: !snaps
  in
  let metrics = Gcs_stdx.Metrics.create () in
  let inspect result =
    trace := S.client_trace result.Gcs_transport.Iface.trace;
    cov :=
      counter_features metrics ~names:S.counter_names ~tag:S.counter_tag
        ~bcasts:(Gcs_stdx.Metrics.counter metrics "to.bcasts")
        ~deliveries:(Gcs_stdx.Metrics.counter metrics "to.deliveries")
        !cov;
    let finals =
      List.map
        (fun (_, node) -> S.snapshot node)
        (Proc.Map.bindings result.Gcs_transport.Iface.final_states)
    in
    cov :=
      Coverage.union !cov
        (Coverage.fuzzy_features ~tag:S.fuzzy_tag (finals @ !snaps))
  in
  let backend =
    match backend with Some b -> b | None -> Service.sim (module S) ~delta
  in
  let outcome =
    Harness.judge (module S) ?mutant ~metrics ~observe ?stop ~inspect
      ~faulty:(input.Input.steps <> [])
      ~backend config ~workload ~until ~seed:input.Input.seed scenario
  in
  let verdict =
    Option.map (fun (check, detail) -> { check; detail }) outcome.Harness.failure
  in
  let crashed =
    match verdict with Some { check = "crash"; _ } -> true | _ -> false
  in
  ( {
      coverage = !cov;
      verdict;
      bcasts = outcome.Harness.bcasts;
      deliveries = outcome.Harness.deliveries;
      events_processed = outcome.Harness.events_processed;
    },
    if crashed then [] else !trace )

let execute_full ?service ?mutant ?backend ?drain ?dests ~config input =
  let (module S : Service.S) = subject ?service ?mutant () in
  match mutant with
  | Some (Service.Tagged (s, m)) ->
      run s (Some m) ?backend ?drain ?dests ~config input
  | None -> run (module S) None ?backend ?drain ?dests ~config input

let execute ?service ?mutant ?backend ?dests ~config input =
  fst (execute_full ?service ?mutant ?backend ?dests ~config input)

let replay ?service ?mutant ?backend ~config input =
  let obs, trace = execute_full ?service ?mutant ?backend ~config input in
  (trace, obs.verdict)

let oracle ?service ?mutant ?backend ~config ~check input =
  match (execute ?service ?mutant ?backend ~config input).verdict with
  | Some f when String.equal f.check check -> Some f
  | Some _ | None -> None
