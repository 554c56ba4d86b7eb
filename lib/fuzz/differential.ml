open Gcs_impl
module Divergence = Gcs_conformance.Divergence
module Service = Gcs_conformance.Service
module Services = Gcs_conformance.Services

type backend = Sim | Bus

type pair = {
  name : string;
  reference : Service.t;
  candidate : Service.t;
  backend : backend;
  batch_window : float option;
}

let sim_bus ?name ?batch_window service =
  {
    name = Option.value name ~default:(Service.name service ^ "-bus");
    reference = service;
    candidate = service;
    backend = Bus;
    batch_window;
  }

let cross candidate =
  {
    name = "vstoto-" ^ Service.name candidate;
    reference = Services.vstoto;
    candidate;
    backend = Sim;
    batch_window = None;
  }

let all =
  [
    sim_bus ~name:"sim-bus" Services.vstoto;
    sim_bus Services.skeen;
    cross Services.skeen;
    cross Services.sequencer;
    sim_bus ~name:"sim-bus-batched" ~batch_window:50.0 Services.vstoto;
  ]

let of_name s = List.find_opt (fun p -> String.equal p.name s) all

let same_service p =
  String.equal (Service.name p.reference) (Service.name p.candidate)

(* Cross-backend delivered-order agreement is only specified fault-free
   (retransmission timing and wall-clock fault injection legitimately
   differ between executions), so the differential mode projects every
   input onto its fault-free workload. *)
let strip input = Input.normalize { input with Input.steps = [] }

(* ----------------------------- verdicts ------------------------------ *)

let incomplete_failure ~pair ~label ~expected orders =
  match Divergence.incomplete ~expected orders with
  | [] -> None
  | missing ->
      Some
        {
          Runner.check = "diff-incomplete";
          detail =
            Printf.sprintf "%s: %s side incomplete: %s" pair.name label
              (String.concat ", "
                 (List.map
                    (fun (p, got) ->
                      Printf.sprintf "node %d delivered %d/%d" p got
                        (expected p))
                    missing));
        }

let divergence_failure ~pair ~left_label ~right_label verdict =
  match verdict with
  | Divergence.Agree -> None
  | Divergence.Diverged _ as d ->
      Some
        {
          Runner.check = "divergence";
          detail =
            Printf.sprintf "%s: %s" pair.name
              (Divergence.describe ~left_label ~right_label d);
        }

(* Incompleteness is judged before ordering so a missing tail reads as
   "node X delivered 3/8", not as a confusing order mismatch at the cut
   point; both are crash-grade in this mode. *)
let judge ~pair ~left_label ~right_label ~compare_fn ~expected left_orders
    right_orders =
  match incomplete_failure ~pair ~label:left_label ~expected left_orders with
  | Some f -> Some f
  | None -> (
      match
        incomplete_failure ~pair ~label:right_label ~expected right_orders
      with
      | Some f -> Some f
      | None ->
          divergence_failure ~pair ~left_label ~right_label
            (compare_fn ~left:left_orders ~right:right_orders))

(* The reference side's own verdict wins; of the candidate's, only a
   crash counts — the planted bugs this mode gauges are the ones no
   single execution can see, so the candidate's oracles are not the
   judge. *)
let first_failure ~ref_obs ~cand_obs judged =
  match (ref_obs.Runner.verdict, cand_obs.Runner.verdict) with
  | Some f, _ -> Some f
  | None, Some ({ Runner.check = "crash"; _ } as f) -> Some f
  | None, (Some _ | None) -> judged ()

(* ----------------------------- anchoring ----------------------------- *)

(* A bus candidate is nondeterministic, so the pair schedules the
   workload by the candidate service's anchoring: the input contributes
   the submission sequence (origins, values) and the seed, the anchoring
   the times and the timing profile. *)

(* Token anchoring: δ large enough that the bus cannot time out between
   wall-clock events, μ huge so no probe fires within the run, π small so
   the bus recirculates the token promptly. *)
let token_profile procs =
  { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 }

(* Serialized anchoring: submissions are spaced further apart than a
   full ordering round on either clock (3δ in the simulator,
   microseconds in-process on the bus). *)
let serial_spacing = 0.01

let serial_profile procs =
  { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 0.003 }

type tamper = { swap_inputs_at : Gcs_core.Proc.t * int }

let swap { swap_inputs_at = p, k } input =
  let mine =
    List.filter_map
      (fun (i, (_, q, v)) ->
        if Gcs_core.Proc.equal q p then Some (i, v) else None)
      (List.mapi (fun i x -> (i, x)) input.Input.workload)
  in
  match (List.nth_opt mine k, List.nth_opt mine (k + 1)) with
  | Some (i, vi), Some (j, vj) ->
      let value n v = if n = i then vj else if n = j then vi else v in
      let workload =
        List.mapi (fun n (t, q, v) -> (t, q, value n v)) input.Input.workload
      in
      { input with Input.workload }
  | _ -> input

let retime at input =
  {
    input with
    Input.workload =
      List.mapi (fun i (_, p, v) -> (at i, p, v)) input.Input.workload;
  }

(* The shared configuration, the scheduled input and the candidate's
   backend. A simulated candidate keeps the caller's timing and the
   stripped input times. *)
let anchor ?(withholds_outputs = false) pair ~config input =
  let procs = config.To_service.vs.Vs_node.procs in
  match pair.backend with
  | Sim ->
      ({ config with To_service.batch_window = pair.batch_window }, input, None)
  | Bus -> (
      let config profile =
        To_service.make_config ?batch_window:pair.batch_window (profile procs)
      in
      let (module S : Service.S) = pair.candidate in
      match S.anchoring with
      | Service.Token_anchored ->
          ( config token_profile,
            retime (fun _ -> 0.0) input,
            Some (Gcs_transport.Bus.backend ()) )
      | Service.Serialized ->
          (* Causal admission: submission [index] enters the bus only
             after the earlier ones are fully processed (one Bcast plus
             one Brcv per member each). Wall-clock spacing alone breaks
             under controller jitter: a collapsed gap overlaps two
             ordering rounds, and a timestamp protocol commits a
             different — valid — total order than the serialized
             reference, a false divergence. A candidate that may withhold
             outputs would hold admission forever, so it runs on the
             spacing alone. *)
          let per_msg = 1 + List.length procs in
          let admit ~outputs ~index = outputs >= index * per_msg in
          let admit = if withholds_outputs then None else Some admit in
          ( config serial_profile,
            retime (fun i -> serial_spacing *. float_of_int (i + 1)) input,
            Some (Gcs_transport.Bus.backend ?admit ()) ))

(* ------------------------------ execute ------------------------------ *)

(* Both sides run through the single-execution runner with full-group
   addressing. Against a bus candidate, both end as soon as the
   workload has drained; the horizons (simulated time units, wall-clock
   seconds) are only the fallback for a run that never drains. *)
let run ?tamper ?withholds_outputs ?mutant ~config pair input =
  let procs = config.To_service.vs.Vs_node.procs in
  let config, input, backend =
    anchor ?withholds_outputs pair ~config (strip input)
  in
  let drain horizon =
    match pair.backend with Sim -> None | Bus -> Some horizon
  in
  let ref_obs, ref_trace =
    Runner.execute_full ~service:pair.reference ?drain:(drain 400.0)
      ~dests:[] ~config input
  in
  let cand_obs, cand_trace =
    Runner.execute_full ~service:pair.candidate ?mutant ?backend
      ?drain:(drain 30.0) ~dests:[] ~config
      (match tamper with Some t -> swap t input | None -> input)
  in
  (* Same service: the anchoring fixes one order, so the sequences must
     match exactly. Two protocols pick different total orders,
     legitimately, but must deliver the same messages to the same
     members. *)
  let left_label, right_label, compare_fn =
    if same_service pair then
      ( "sim",
        (match pair.backend with Sim -> "sim" | Bus -> "bus"),
        Divergence.compare_orders )
    else
      ( Service.name pair.reference,
        Service.name pair.candidate,
        Divergence.compare_contents )
  in
  let n_msgs = List.length input.Input.workload in
  let verdict =
    first_failure ~ref_obs ~cand_obs (fun () ->
        judge ~pair ~left_label ~right_label ~compare_fn
          ~expected:(fun _ -> n_msgs)
          (Divergence.orders ~procs ref_trace)
          (Divergence.orders ~procs cand_trace))
  in
  (* Wall-clock coverage is nondeterministic: only a simulated candidate
     adds its coverage to the reference's. *)
  let coverage =
    match pair.backend with
    | Sim -> Coverage.union ref_obs.Runner.coverage cand_obs.Runner.coverage
    | Bus -> ref_obs.Runner.coverage
  in
  {
    ref_obs with
    Runner.coverage;
    verdict;
    events_processed =
      ref_obs.Runner.events_processed + cand_obs.Runner.events_processed;
  }

(* The pairing check runs once the pair is applied, so a partial
   application checks once for a whole campaign. *)
let execute ?tamper ?withholds_outputs ?mutant ~config pair =
  Option.iter (Service.check_mutant pair.candidate) mutant;
  fun input ->
    (try run ?tamper ?withholds_outputs ?mutant ~config pair input
     with e ->
       {
         Runner.coverage = Coverage.empty;
         verdict = Some { Runner.check = "crash"; detail = Printexc.to_string e };
         bcasts = 0;
         deliveries = 0;
         events_processed = 0;
       })
    [@gcs.lint.allow "P2" (* crash-as-verdict, same policy as Runner *)]

let oracle ?tamper ?withholds_outputs ?mutant ~config ~check pair input =
  match
    (execute ?tamper ?withholds_outputs ?mutant ~config pair input)
      .Runner.verdict
  with
  | Some f when String.equal f.Runner.check check -> Some f
  | Some _ | None -> None

(* --------------------------- seed schedules -------------------------- *)

(* Fault-free seed corpus for the differential mode: a round-robin burst
   (adjacent submissions from different origins — the profile under
   which a delivery-order tamper is pure divergence), a single-origin
   stream, and a seeded random mix. Times are irrelevant (a bus pair
   reassigns them); sequence order and origins are the genome. *)
let seed_inputs ~procs ~prng =
  match procs with
  | [] -> []
  | p0 :: _ ->
      let n = List.length procs in
      let round_robin =
        List.init 8 (fun i ->
            (0.0, List.nth procs (i mod n), Printf.sprintf "r%d" i))
      in
      let single = List.init 6 (fun i -> (0.0, p0, Printf.sprintf "s%d" i)) in
      let random =
        List.init 10 (fun i ->
            (0.0, Gcs_stdx.Prng.pick_exn prng procs, Printf.sprintf "x%d" i))
      in
      List.map
        (fun workload ->
          Input.normalize { Input.seed = 1; steps = []; workload })
        [ round_robin; single; random ]
