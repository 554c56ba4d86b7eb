open Gcs_core
open Gcs_impl
module Service = Gcs_conformance.Service
module Iface = Gcs_transport.Iface
module Jsonx = Gcs_stdx.Jsonx

type outcome = {
  scenario : Scenario.t;
  seed : int;
  until : float;
  stabilization : float;
  failure : (string * string) option;
  bcasts : int;
  deliveries : int;
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
  metrics : Gcs_stdx.Metrics.t;
}

let bounds = To_service.bounds

let default_until ~config scenario =
  let b', d' = bounds config in
  Scenario.stabilization_time scenario +. b' +. d' +. To_service.horizon_slack

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

let judge (type c n i p o) ((module S) : (c, n, i, p, o) Service.s) ?mutant
    ?metrics ?observe ?stop ?inspect ?faulty ~backend config ~workload ~until
    ~seed (scenario : Scenario.t) =
  let procs = S.procs config in
  if not (Scenario.all_good ~procs (Scenario.final_world ~procs scenario)) then
    invalid_arg
      (Printf.sprintf
         "Harness.judge: scenario %s does not end fully good, so the \
          delivery-bound premise does not hold"
         scenario.Scenario.name);
  let stabilization = Scenario.stabilization_time scenario in
  let faulty = Option.value faulty ~default:(scenario.Scenario.steps <> []) in
  let outcome =
    {
      scenario;
      seed;
      until;
      stabilization;
      failure = None;
      bcasts = 0;
      deliveries = 0;
      packets_sent = 0;
      packets_dropped = 0;
      events_processed = 0;
      metrics = Option.value metrics ~default:(Gcs_stdx.Metrics.create ());
    }
  in
  (try
     let result =
       Service.run (module S) ?mutant ?metrics ?observe ?stop ~backend config
         ~workload
         ~failures:(Scenario.compile ~procs scenario)
         ~until ~seed
     in
     let client = S.client_trace result.Iface.trace in
     let bcasts, deliveries = Service.tally client in
     Option.iter
       (fun m -> record_phase_metrics m ~stabilization client)
       metrics;
     Option.iter (fun f -> f result) inspect;
     {
       outcome with
       failure =
         S.verdict config ~faulty ~until ~workload result.Iface.trace
           result.Iface.final_states;
       bcasts;
       deliveries;
       packets_sent = result.Iface.packets_sent;
       packets_dropped = result.Iface.packets_dropped;
       events_processed = result.Iface.events_processed;
     }
   with e ->
     (* Any escape from the backend or a checker is a finding in its own
        right; converting it keeps domain-pool batches alive and lets the
        shrinker minimize crashing schedules like any other failure. *)
     { outcome with failure = Some ("crash", Printexc.to_string e) })
  [@gcs.lint.allow "P2"]

let run ?workload ~config ?until ~seed scenario =
  let module V = Gcs_conformance.Services.Vstoto in
  let vs = config.To_service.vs in
  judge
    (module V)
    ~metrics:(Gcs_stdx.Metrics.create ())
    ~backend:(Service.sim (module V) ~delta:vs.Vs_node.delta)
    config
    ~workload:
      (Option.value workload
         ~default:(default_workload ~procs:vs.Vs_node.procs ()))
    ~until:(Option.value until ~default:(default_until ~config scenario))
    ~seed scenario

let passed outcome = Option.is_none outcome.failure

let pp ppf outcome =
  Format.fprintf ppf
    "@[<v>scenario %s (seed %d)@,\
     simulated until t=%.1f, stabilization l=%.1f@,\
     workload: %d bcasts, %d deliveries@,\
     network: %d packets (%d dropped), %d events@,"
    outcome.scenario.Scenario.name outcome.seed outcome.until
    outcome.stabilization outcome.bcasts outcome.deliveries
    outcome.packets_sent outcome.packets_dropped outcome.events_processed;
  (match outcome.failure with
  | None -> Format.fprintf ppf "oracles: every check holds"
  | Some (check, detail) -> Format.fprintf ppf "FAILED %s: %s" check detail);
  Format.fprintf ppf "@,verdict: %s@]"
    (if passed outcome then "PASS" else "FAIL")

let pp_line ppf o =
  Format.fprintf ppf "seed %6d  %-20s %5d deliveries  %s" o.seed
    o.scenario.Scenario.name o.deliveries
    (match o.failure with None -> "PASS" | Some (check, _) -> "FAIL " ^ check)

let to_json outcome =
  let int k = Jsonx.Num (float_of_int k) in
  Jsonx.encode
    (Jsonx.Obj
       [
         ("scenario", Jsonx.Str outcome.scenario.Scenario.name);
         ("seed", int outcome.seed);
         ("until", Jsonx.Num outcome.until);
         ("stabilization", Jsonx.Num outcome.stabilization);
         ( "failure",
           match outcome.failure with
           | None -> Jsonx.Null
           | Some (check, detail) ->
               Jsonx.Obj [ ("check", Jsonx.Str check); ("detail", Jsonx.Str detail) ]
         );
         ("bcasts", int outcome.bcasts);
         ("deliveries", int outcome.deliveries);
         ("packets_sent", int outcome.packets_sent);
         ("packets_dropped", int outcome.packets_dropped);
         ("events_processed", int outcome.events_processed);
         ("passed", Jsonx.Bool (passed outcome));
       ])

let to_json_with_metrics outcome =
  let base = to_json outcome in
  (* [to_json] emits a single flat object; splice the metrics snapshot in
     verbatim before the closing brace so consumers see one object. *)
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
        +. Vs_node.impl_b config +. Vs_node.impl_d config
        +. To_service.horizon_slack
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
