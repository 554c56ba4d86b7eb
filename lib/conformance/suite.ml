open Gcs_core
open Gcs_impl
open Gcs_nemesis

type profile = {
  label : string;
  service : Service.t;
  backend : Gcs_transport.Iface.backend;
  config : To_service.config;
  beat : float;
  workload_spacing : float;
  workload_count : int;
  slack : float;
  use_stop : bool;
}

let mk_config ?batch_window ~n ~delta ~pi ~mu () =
  let procs = Proc.all ~n in
  To_service.make_config ?batch_window
    { Vs_node.procs; p0 = procs; pi; mu; delta }

(* The sim profile uses the repository's standard simulated timing
   (δ = 1, π = 6, μ = 8); the bus profile is the same shape scaled to
   wall seconds by 1/10, so a case converges in a few seconds of real
   time while keeping every π/μ/δ ratio — and hence the protocol's
   timeout structure — intact. *)

let sim_profile ?batch_window ?n service =
  let (module S : Service.S) = service in
  let n = Option.value n ~default:S.default_n in
  {
    label = "sim";
    service;
    backend = Service.sim service ~delta:1.0;
    config = mk_config ?batch_window ~n ~delta:1.0 ~pi:6.0 ~mu:8.0 ();
    beat = 10.0;
    workload_spacing = 3.0;
    workload_count = 4;
    slack = 60.0;
    use_stop = false;
  }

let bus_profile ?batch_window ?n service =
  let (module S : Service.S) = service in
  let n = Option.value n ~default:S.default_n in
  {
    label = "bus";
    service;
    backend = Gcs_transport.Bus.backend ();
    config = mk_config ?batch_window ~n ~delta:0.1 ~pi:0.6 ~mu:0.8 ();
    beat = 0.5;
    workload_spacing = 0.25;
    workload_count = 4;
    slack = 2.0;
    use_stop = true;
  }

type case = { name : string; scenario : Scenario.t }

let cases profile =
  let procs = profile.config.To_service.vs.Vs_node.procs in
  let n = List.length procs in
  let b = profile.beat in
  let hi = List.nth procs (n - 1) in
  let lo =
    match procs with
    | p :: _ -> p
    | [] -> invalid_arg "Suite.cases: empty processor set"
  in
  let split =
    (* majority part keeps the leader; the rest is isolated *)
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    let maj = take ((n / 2) + 1) procs in
    let min_part = List.filter (fun p -> not (List.mem p maj)) procs in
    [ maj; min_part ]
  in
  let v name steps = { name; scenario = Scenario.v name steps } in
  [
    v "clean" [];
    v "partition-heal"
      [ Scenario.at (2.0 *. b) (Scenario.Partition split);
        Scenario.at (6.0 *. b) Scenario.Heal ];
    v "crash-recover"
      [ Scenario.at (2.0 *. b) (Scenario.Crash hi);
        Scenario.at (6.0 *. b) (Scenario.Recover hi);
        Scenario.at (6.5 *. b) Scenario.Heal ];
    v "ugly-link"
      [ Scenario.at (2.0 *. b) (Scenario.Degrade (lo, hi, Fstatus.Ugly));
        Scenario.at (6.0 *. b) (Scenario.Degrade (lo, hi, Fstatus.Good));
        Scenario.at (6.5 *. b) Scenario.Heal ];
    v "slow-processor"
      [ Scenario.at (2.0 *. b) (Scenario.Slow hi);
        Scenario.at (6.0 *. b) (Scenario.Wake hi);
        Scenario.at (6.5 *. b) Scenario.Heal ];
  ]

type outcome = {
  case : string;
  seed : int;
  failure : (string * string) option;
  bcasts : int;
  deliveries : int;
  events_processed : int;
}

(* Workload spread over the fault window: distinct values per origin (the
   trace checkers require it), origins interleaved. Addressing is
   deterministic per (origin, index) and mixes full-group and
   overlapping-subset submissions: a third go to the whole group, a
   third to the pair from the origin up, a third to the triple from the
   index up. Services without destination subsets ignore it. *)
let workload (type c n i p o) ((module S) : (c, n, i, p, o) Service.s) config
    profile =
  let procs = S.procs config in
  let n = List.length procs in
  let nth i = List.nth procs (i mod n) in
  let dests p k =
    match (p + k) mod 3 with
    | 0 -> []
    | 1 -> [ nth p; nth (p + 1) ]
    | _ -> [ nth k; nth (k + 1); nth (k + 2) ]
  in
  List.concat_map
    (fun p ->
      List.init profile.workload_count (fun k ->
          ( profile.workload_spacing
            *. float_of_int (1 + k + (p * profile.workload_count)),
            p,
            S.lift ~dests:(dests p k) config p (Printf.sprintf "c%d.%d" p k) )))
    procs

let addressing profile =
  let (module S : Service.S) = profile.service in
  let config = S.configure profile.config in
  List.map
    (fun (_, p, input) -> (p, S.destinations config input))
    (workload (module S) config profile)

let check profile ~seed case =
  let (module S : Service.S) = profile.service in
  let config = S.configure profile.config in
  let procs = S.procs config in
  let l = Scenario.stabilization_time case.scenario in
  let workload = workload (module S) config profile in
  let workload_end =
    List.fold_left (fun acc (t, _, _) -> Float.max acc t) 0.0 workload
  in
  let until =
    S.settle config ~stabilization:l ~workload_end +. profile.slack
  in
  let failures = Scenario.compile ~procs case.scenario in
  (* Early stop for wall-clock backends: every node has delivered the
     whole workload addressed to it, and the fault schedule has fully
     played (stopping mid-schedule would make the bound check vacuous). *)
  let observe, stop =
    if profile.use_stop then
      let observe, stop = Service.drained (module S) config ~workload ~after:l in
      (observe, Some stop)
    else (None, None)
  in
  let run =
    Service.run (module S) ?observe ?stop
      ~backend:profile.backend config ~workload ~failures ~until ~seed
  in
  let trace = run.Gcs_transport.Iface.trace in
  let failure =
    S.verdict config
      ~faulty:(case.scenario.Scenario.steps <> [])
      ~until ~workload trace run.Gcs_transport.Iface.final_states
  in
  let bcasts, deliveries = Service.tally (S.client_trace trace) in
  {
    case = case.name;
    seed;
    failure;
    bcasts;
    deliveries;
    events_processed = run.Gcs_transport.Iface.events_processed;
  }

let run_all profile ~seed =
  List.map (fun case -> check profile ~seed case) (cases profile)

let passed outcome = Option.is_none outcome.failure

let pp_outcome ppf o =
  match o.failure with
  | None ->
      Format.fprintf ppf "%-16s seed %d: OK (%d bcasts, %d deliveries)" o.case
        o.seed o.bcasts o.deliveries
  | Some (check, detail) ->
      Format.fprintf ppf "%-16s seed %d: FAILED %s: %s" o.case o.seed check
        detail
