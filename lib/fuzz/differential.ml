open Gcs_impl
module Divergence = Gcs_conformance.Divergence
module Service = Gcs_conformance.Service
module Services = Gcs_conformance.Services

type pair = Sim_bus | Skeen_bus | Vstoto_skeen | Vstoto_sequencer

let all = [ Sim_bus; Skeen_bus; Vstoto_skeen; Vstoto_sequencer ]

let name = function
  | Sim_bus -> "sim-bus"
  | Skeen_bus -> "skeen-bus"
  | Vstoto_skeen -> "vstoto-skeen"
  | Vstoto_sequencer -> "vstoto-sequencer"

let of_name s = List.find_opt (fun p -> String.equal (name p) s) all

let doc = function
  | Sim_bus ->
      "VStoTO: deterministic simulator vs multi-domain bus (anchored \
       workload, exact per-node order equality)"
  | Skeen_bus ->
      "Skeen: simulator vs bus (serialized workload, exact per-node order \
       equality)"
  | Vstoto_skeen ->
      "VStoTO vs Skeen, both simulated (full-group workload, per-node \
       content equality)"
  | Vstoto_sequencer ->
      "VStoTO vs fixed-sequencer baseline, both simulated (per-node \
       content equality)"

(* Cross-backend delivered-order agreement is only specified fault-free
   (retransmission timing and wall-clock fault injection legitimately
   differ between executions), so the differential mode projects every
   input onto its fault-free workload. The projection also reassigns
   workload times per pair: the anchoring that makes a nondeterministic
   backend's delivered order reproducible is a property of *when* the
   submissions land, so the pair — not the mutated input — owns the
   schedule; the input contributes the sequence (origins, values) and
   the seed. *)
let strip input = Input.normalize { input with Input.steps = [] }

let sequence input =
  List.map (fun (_, p, v) -> (p, v)) (strip input).Input.workload

(* ----------------------------- verdicts ------------------------------ *)

let incomplete_failure ~pair ~label ~expected orders =
  match Divergence.incomplete ~expected orders with
  | [] -> None
  | missing ->
      Some
        {
          Runner.check = "diff-incomplete";
          detail =
            Printf.sprintf "%s: %s side incomplete: %s" (name pair) label
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
            Printf.sprintf "%s: %s" (name pair)
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

(* ------------------------------ sim-bus ------------------------------ *)

(* The workload anchoring (everything at t = 0) and the timing profile
   (δ large, μ huge, π small) come from the conformance differential
   harness: under them the token fixes one transport-independent total
   order, so the bus — for all its wall-clock nondeterminism — must
   reproduce the simulator's delivered sequences byte for byte. *)
let execute_sim_bus ?tamper ?mutant ~n input =
  let module V = Services.Vstoto in
  let seq = sequence input in
  let n_msgs = List.length seq in
  let seed = input.Input.seed in
  let config = Gcs_conformance.Differential.config ~n () in
  let procs = V.procs config in
  let workload = List.map (fun (p, v) -> (0.0, p, v)) seq in
  (* Reference: the deterministic simulator, with the single-execution
     coverage instrumentation (transitions, counters, state hashes);
     snapshots are taken at every view install. *)
  let cov = ref Coverage.empty in
  let sim_run, sim_trace, bcasts, deliveries =
    Runner.instrumented
      (module V)
      ~snapshot_point:(fun pre post ->
        To_service.node_views_installed post
        > To_service.node_views_installed pre)
      ~cov
      ~backend:(Service.sim Services.vstoto ~delta:5.0)
      config ~workload ~failures:[] ~until:400.0 ~seed
  in
  let sim_orders = Divergence.orders ~procs sim_trace in
  (* Candidate: the bus, stopping as soon as every node has delivered the
     whole workload (the horizon is only the failure fallback). A
     planted bug, if any, applies here — a transport tamper baked into
     the backend, or a handler rewrite instrumenting the VStoTO
     automata — while the simulator side stays the oracle. *)
  let bus_orders, bus_events =
    let run (type c nd i p o) ((module S) : (c, nd, i, p, o) Service.s)
        mutant params =
      let config = S.configure params in
      let workload =
        List.map (fun (t, p, v) -> (t, p, S.lift config p v)) workload
      in
      let observe, stop =
        Service.drained (module S) config ~workload ~after:Float.neg_infinity
      in
      let result =
        Service.run (module S) ?mutant
          ~metrics:(Gcs_stdx.Metrics.create ())
          ?observe ~stop
          ~backend:(Gcs_transport.Bus.backend ?tamper ())
          config ~workload ~failures:[] ~until:30.0 ~seed
      in
      ( Divergence.orders ~procs
          (S.client_trace result.Gcs_transport.Iface.trace),
        result.Gcs_transport.Iface.events_processed )
    in
    match mutant with
    | Some (Service.Tagged (s, m)) -> run s (Some m) config
    | None -> run (module V) None config
  in
  let verdict =
    judge ~pair:Sim_bus ~left_label:"sim" ~right_label:"bus"
      ~compare_fn:Divergence.compare_orders
      ~expected:(fun _ -> n_msgs)
      sim_orders bus_orders
  in
  {
    Runner.coverage = !cov;
    verdict;
    bcasts;
    deliveries;
    events_processed =
      sim_run.Gcs_transport.Iface.events_processed + bus_events;
  }

(* ----------------------------- skeen-bus ----------------------------- *)

(* Skeen's total order is decided by timestamp races, so concurrency on
   a wall-clock backend is honest nondeterminism. The anchoring here is
   temporal instead of token-based: submissions are spaced further apart
   than a full propose/proposal/commit round on either clock (3δ in the
   simulator, microseconds in-process on the bus), so each message
   commits before the next is born and the delivered order must equal
   the submission order on both sides. *)
let skeen_spacing = 0.01
let skeen_delta = 0.003

let skeen_project input =
  let seq = sequence input in
  let workload =
    List.mapi
      (fun i (p, v) -> (skeen_spacing *. float_of_int (i + 1), p, v))
      seq
  in
  { Input.seed = input.Input.seed; steps = []; workload }

(* The shared parameters at link bound [delta]: only the processor set
   and δ matter to Skeen and the sequencer. *)
let params ~procs ~delta =
  To_service.make_config { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta }

let execute_skeen_bus ?tamper ?mutant ~procs input =
  let config = params ~procs ~delta:skeen_delta in
  let input = skeen_project input in
  let n_msgs = List.length input.Input.workload in
  (* Reference: the FIFO simulator, with the single-execution Skeen
     oracle battery and coverage instrumentation. *)
  let ref_obs, ref_trace =
    Runner.execute_full ~service:Services.skeen ~dests:[] ~config input
  in
  let ref_orders = Divergence.orders ~procs ref_trace in
  (* Candidate: the same schedule on the bus; a planted mutant (handler
     rewrite or transport tamper) applies to this side only, so the
     reference stays the oracle. *)
  (* Early exit once every submission and delivery is on the trace (one
     Bcast per message, one Brcv per message per member); the wall-clock
     horizon is only the fallback for runs a mutant wedges. *)
  let expected_outputs = n_msgs * (1 + List.length procs) in
  let stop ~now:_ ~outputs = outputs >= expected_outputs in
  (* Causal admission: submission [index] enters the bus only after the
     previous submissions are fully processed (one Bcast plus one Brcv
     per member each). Wall-clock spacing alone breaks under controller
     jitter: a collapsed gap overlaps two proposal rounds and Skeen
     commits a different — valid — total order than the serialized
     reference, a false divergence. *)
  let per_msg = 1 + List.length procs in
  let admit ~outputs ~index = outputs >= index * per_msg in
  let cand_obs, cand_trace =
    Runner.execute_full ~service:Services.skeen ?mutant
      ~backend:(Gcs_transport.Bus.backend ?tamper ~admit ())
      ~stop ~dests:[] ~config input
  in
  let cand_orders = Divergence.orders ~procs cand_trace in
  let verdict =
    first_failure ~ref_obs ~cand_obs (fun () ->
        judge ~pair:Skeen_bus ~left_label:"sim" ~right_label:"bus"
          ~compare_fn:Divergence.compare_orders
          ~expected:(fun _ -> n_msgs)
          ref_orders cand_orders)
  in
  {
    ref_obs with
    Runner.verdict;
    events_processed =
      ref_obs.Runner.events_processed + cand_obs.Runner.events_processed;
  }

(* --------------------------- cross-protocol -------------------------- *)

(* Two protocols pick different total orders, legitimately: the
   comparison is per-node content (same messages to the same members),
   which fault-free executions must agree on however they order. Both
   sides run simulated with VStoTO's δ. *)
let execute_cross ?mutant ~candidate ~union_coverage pair ~config input =
  let procs = config.To_service.vs.Vs_node.procs in
  let input = strip input in
  let n_msgs = List.length input.Input.workload in
  let ref_obs, ref_trace = Runner.execute_full ~config input in
  let ref_orders = Divergence.orders ~procs ref_trace in
  let cand_obs, cand_trace =
    Runner.execute_full ~service:candidate ?mutant ~dests:[] ~config
      input
  in
  let cand_orders = Divergence.orders ~procs cand_trace in
  let verdict =
    first_failure ~ref_obs ~cand_obs (fun () ->
        judge ~pair ~left_label:"vstoto" ~right_label:(Service.name candidate)
          ~compare_fn:Divergence.compare_contents
          ~expected:(fun _ -> n_msgs)
          ref_orders cand_orders)
  in
  if union_coverage then
    {
      ref_obs with
      Runner.coverage =
        Coverage.union ref_obs.Runner.coverage cand_obs.Runner.coverage;
      verdict;
      events_processed =
        ref_obs.Runner.events_processed + cand_obs.Runner.events_processed;
    }
  else { ref_obs with Runner.verdict }

(* ------------------------------ dispatch ----------------------------- *)

let candidate = function
  | Sim_bus -> Services.vstoto
  | Skeen_bus | Vstoto_skeen -> Services.skeen
  | Vstoto_sequencer -> Services.sequencer

(* The pairing check runs once the pair is applied, so a partial
   application checks once for a whole campaign. *)
let execute ?tamper ?mutant ~config pair =
  Option.iter (Service.check_mutant (candidate pair)) mutant;
  let procs = config.To_service.vs.Vs_node.procs in
  fun input ->
    (try
       match pair with
       | Sim_bus -> execute_sim_bus ?tamper ?mutant ~n:(List.length procs) input
       | Skeen_bus -> execute_skeen_bus ?tamper ?mutant ~procs input
       | Vstoto_skeen ->
           execute_cross ?mutant ~candidate:Services.skeen ~union_coverage:true
             pair ~config input
       | Vstoto_sequencer ->
           execute_cross ?mutant ~candidate:Services.sequencer
             ~union_coverage:false pair ~config input
     with e ->
       {
         Runner.coverage = Coverage.empty;
         verdict = Some { Runner.check = "crash"; detail = Printexc.to_string e };
         bcasts = 0;
         deliveries = 0;
         events_processed = 0;
       })
    [@gcs.lint.allow "P2" (* crash-as-verdict, same policy as Runner *)]

let oracle ?tamper ?mutant ~config ~check pair input =
  match (execute ?tamper ?mutant ~config pair input).Runner.verdict with
  | Some f when String.equal f.Runner.check check -> Some f
  | Some _ | None -> None

(* --------------------------- seed schedules -------------------------- *)

(* Fault-free seed corpus for the differential mode: a round-robin burst
   (adjacent submissions from different origins — the profile under
   which a delivery-order tamper is pure divergence), a single-origin
   stream, and a seeded random mix. Times are irrelevant (each pair
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
