open Gcs_core
open Gcs_impl

type outcome = {
  scenario : Scenario.t;
  seed : int;
  until : float;
  stabilization : float;
  to_conformance : (unit, string) result;
  vs_conformance : (unit, string) result;
  bound : To_property.report option;
  bcasts : int;
  deliveries : int;
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
  metrics : Gcs_stdx.Metrics.t;
}

(* Extra slack past the theoretical horizon [l + b' + d']: leaves room for
   workload submitted shortly before stabilization to drain, so the
   delivery-bound check is not vacuously tight. Shared by the TO and
   bare-ring harnesses. *)
let horizon_slack = 60.0

let bounds (config : To_service.config) =
  let vs = config.To_service.vs in
  let delta = vs.Vs_node.delta in
  let b' = Vs_node.impl_b vs +. Vs_node.impl_d vs in
  let d' = Vs_node.impl_d vs +. (4.0 *. delta) in
  (b', d')

let default_until ~config scenario =
  let b', d' = bounds config in
  Scenario.stabilization_time scenario +. b' +. d' +. horizon_slack

let default_workload ~procs ?(from_time = 10.0) ?(spacing = 15.0) ?(count = 8)
    () =
  List.concat_map
    (fun (i, p) ->
      List.init count (fun k ->
          ( from_time +. (float_of_int k *. spacing) +. (0.17 *. float_of_int i),
            p,
            Printf.sprintf "n%d.%d" p k )))
    (List.mapi (fun i p -> (i, p)) procs)

(* Split the client-trace bcast/delivery counts at the scenario's
   stabilization time l, so a snapshot shows how much of the workload ran
   under faults versus after the final heal. *)
let record_phase_metrics metrics ~stabilization trace =
  let count name = Gcs_stdx.Metrics.incr metrics name in
  List.iter
    (fun (time, action) ->
      let phase = if time <= stabilization then "pre" else "post" in
      match action with
      | To_action.Bcast _ -> count (Printf.sprintf "harness.bcasts.%s_stabilization" phase)
      | To_action.Brcv _ ->
          count (Printf.sprintf "harness.deliveries.%s_stabilization" phase)
      | _ -> ())
    (Timed.actions trace)

let run ?metrics ?engine ?backend ?stop ?workload ~config ?until ~seed scenario
    =
  let metrics =
    match metrics with Some m -> m | None -> Gcs_stdx.Metrics.create ()
  in
  let procs = config.To_service.vs.Vs_node.procs in
  let until =
    match until with Some u -> u | None -> default_until ~config scenario
  in
  let workload =
    match workload with
    | Some w -> w
    | None -> default_workload ~procs ()
  in
  let failures = Scenario.compile ~procs scenario in
  let backend =
    match backend with Some b -> b | None -> To_service.sim ?engine config
  in
  let run =
    To_service.run_on ~metrics ?stop ~backend config ~workload ~failures
      ~until ~seed
  in
  record_phase_metrics metrics
    ~stabilization:(Scenario.stabilization_time scenario)
    (To_service.client_trace run);
  let to_conformance =
    Result.map_error
      (Format.asprintf "%a" To_trace_checker.pp_error)
      (To_service.to_conforms config run)
  in
  let vs_conformance =
    Result.map_error
      (Format.asprintf "%a" Vs_trace_checker.pp_error)
      (To_service.vs_conforms config run)
  in
  let bound =
    if Scenario.all_good ~procs (Scenario.final_world ~procs scenario) then
      let b', d' = bounds config in
      Some
        (To_property.check ~b:b' ~d:d' ~q:procs ~horizon:until
           (To_service.client_trace run))
    else None
  in
  let bcasts =
    List.length
      (List.filter
         (fun (_, a) -> match a with To_action.Bcast _ -> true | _ -> false)
         (Timed.actions (To_service.client_trace run)))
  in
  {
    scenario;
    seed;
    until;
    stabilization = Scenario.stabilization_time scenario;
    to_conformance;
    vs_conformance;
    bound;
    bcasts;
    deliveries = To_service.deliveries run;
    packets_sent = run.To_service.packets_sent;
    packets_dropped = run.To_service.packets_dropped;
    events_processed = run.To_service.events_processed;
    metrics;
  }

let run_batch ?jobs ?engine ?workload ~config ?until ?events ~seeds () =
  let procs = config.To_service.vs.Vs_node.procs in
  Gcs_stdx.Pool.map ?jobs
    (fun seed ->
      let scenario = Gen.scenario ~procs ?events ~seed () in
      run ?engine ?workload ~config ?until ~seed scenario)
    seeds

let passed outcome =
  Result.is_ok outcome.to_conformance
  && Result.is_ok outcome.vs_conformance
  && match outcome.bound with
     | None -> true
     | Some report -> To_property.holds report

let pp ppf outcome =
  let conformance = function Ok () -> "OK" | Error e -> "FAILED: " ^ e in
  Format.fprintf ppf
    "@[<v>scenario %s (seed %d)@,\
     simulated until t=%.1f, stabilization l=%.1f@,\
     workload: %d bcasts, %d deliveries@,\
     network: %d packets (%d dropped), %d events@,\
     TO-machine conformance: %s@,\
     VS-machine conformance: %s"
    outcome.scenario.Scenario.name outcome.seed outcome.until
    outcome.stabilization outcome.bcasts outcome.deliveries
    outcome.packets_sent outcome.packets_dropped outcome.events_processed
    (conformance outcome.to_conformance)
    (conformance outcome.vs_conformance);
  (match outcome.bound with
  | None ->
      Format.fprintf ppf "@,delivery bound: n/a (scenario ends degraded)"
  | Some report ->
      if To_property.holds report then
        Format.fprintf ppf
          "@,delivery bound: OK (%d obligations, max latency %.1f)"
          report.To_property.obligations report.To_property.max_latency
      else
        Format.fprintf ppf "@,delivery bound: FAILED %a" To_property.pp_report
          report);
  Format.fprintf ppf "@,verdict: %s@]"
    (if passed outcome then "PASS" else "FAIL")

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json outcome =
  let conformance = function
    | Ok () -> {|"ok"|}
    | Error e -> Printf.sprintf {|"%s"|} (json_escape e)
  in
  let bound =
    match outcome.bound with
    | None -> "null"
    | Some report ->
        Printf.sprintf
          {|{"holds":%b,"stabilization":%.3f,"obligations":%d,"violations":%d,"max_latency":%.3f}|}
          (To_property.holds report)
          report.To_property.stabilization_time report.To_property.obligations
          (List.length report.To_property.violations)
          report.To_property.max_latency
  in
  Printf.sprintf
    {|{"scenario":"%s","seed":%d,"until":%.3f,"stabilization":%.3f,"to_conformance":%s,"vs_conformance":%s,"bound":%s,"bcasts":%d,"deliveries":%d,"packets_sent":%d,"packets_dropped":%d,"events_processed":%d,"passed":%b}|}
    (json_escape outcome.scenario.Scenario.name)
    outcome.seed outcome.until outcome.stabilization
    (conformance outcome.to_conformance)
    (conformance outcome.vs_conformance)
    bound outcome.bcasts outcome.deliveries outcome.packets_sent
    outcome.packets_dropped outcome.events_processed (passed outcome)

let to_json_with_metrics outcome =
  let base = to_json outcome in
  (* [to_json] emits a single flat object; splice the metrics in before
     the closing brace so consumers see one object. *)
  Printf.sprintf "%s,\"metrics\":%s}"
    (String.sub base 0 (String.length base - 1))
    (Gcs_stdx.Metrics.to_json outcome.metrics)

type vs_outcome = {
  vs_ring_conformance : (unit, string) result;
  views_installed : int;
  ring_deliveries : int;
}

let run_vs_ring ?protocol ?workload ~config ?until ~seed scenario =
  let procs = config.Vs_node.procs in
  let until =
    match until with
    | Some u -> u
    | None ->
        Scenario.stabilization_time scenario
        +. Vs_node.impl_b config +. Vs_node.impl_d config +. horizon_slack
  in
  let workload =
    match workload with
    | Some w -> w
    | None ->
        (* Default: the TO harness workload with an "r" prefix so the two
           layers' values cannot be confused in mixed traces. *)
        List.map
          (fun (t, p, v) -> (t, p, Printf.sprintf "r%s" v))
          (default_workload ~procs ())
  in
  let failures = Scenario.compile ~procs scenario in
  let run =
    Vs_service.run ?protocol config ~workload ~failures ~until ~seed
  in
  {
    vs_ring_conformance =
      Result.map_error
        (Format.asprintf "%a" Vs_trace_checker.pp_error)
        (Vs_service.conforms ~equal_msg:String.equal config run);
    views_installed = Vs_service.views_installed_total run;
    ring_deliveries =
      List.length
        (List.filter
           (fun (_, a) ->
             match a with Vs_action.Gprcv _ -> true | _ -> false)
           (Timed.actions run.Vs_service.trace));
  }
