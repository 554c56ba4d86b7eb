(* Tests for the VStoTO algorithm over the VS-machine specification:
   - the Section 6.1 invariants (Lemmas 6.1-6.24) on random executions,
   - the forward simulation to TO-machine (Lemma 6.25 / Theorem 6.26),
   - acceptance of the client-level trace by the TO trace checker,
   - the Figure 10 label-precondition erratum (see DESIGN.md). *)

open Gcs_automata
open Gcs_core

let procs = Proc.all ~n:4
let p0 = procs
let quorums = Quorum.majorities ~n:4

let params = Vstoto_system.make_params ~procs ~p0 ~quorums ()
let automaton = Vstoto_system.automaton params
let values = [ "a"; "b"; "c"; "d"; "e" ]

let scheduler ?(inject_weight = 0.3) params automaton =
  Scheduler.weighted automaton
    ~inject:(Vstoto_system.inject params ~values)
    ~inject_weight

let run ?(steps = 350) ?(params = params) ?(automaton = automaton) seed =
  Exec.run automaton
    ~scheduler:(scheduler params automaton)
    ~steps
    ~prng:(Gcs_stdx.Prng.create seed)

let seeds = List.init 15 (fun i -> i)

let test_invariants () =
  match
    Invariant.check_random automaton
      ~scheduler:(scheduler params automaton)
      ~seeds ~steps:350
      (Vstoto_invariants.all params)
  with
  | None -> ()
  | Some (v, seed) ->
      Alcotest.failf "%s violated at step %d (seed %d): %s"
        v.Invariant.invariant v.Invariant.step_index seed v.Invariant.detail

let test_forward_simulation () =
  List.iter
    (fun seed ->
      match To_simulation.check_execution params (run seed) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: %s" seed msg)
    seeds

let client_trace execution =
  List.filter_map
    (fun action ->
      match action with
      | Sys_action.Bcast (p, a) -> Some (To_action.Bcast (p, a))
      | Sys_action.Brcv { src; dst; value } ->
          Some (To_action.Brcv { src; dst; value })
      | _ -> None)
    (Exec.actions execution)

let test_trace_is_to_trace () =
  let to_params = To_simulation.abstract_params params in
  List.iter
    (fun seed ->
      match To_trace_checker.check to_params (client_trace (run seed)) with
      | Ok () -> ()
      | Error err ->
          Alcotest.failf "seed %d: %s" seed
            (Format.asprintf "%a" To_trace_checker.pp_error err))
    seeds

let count_deliveries execution =
  List.length
    (List.filter
       (function Sys_action.Brcv _ -> true | _ -> false)
       (Exec.actions execution))

let test_progress_happens () =
  (* Sanity: with everyone in one primary view, values actually reach
     clients (the executions are not vacuous). *)
  let total =
    List.fold_left (fun acc seed -> acc + count_deliveries (run seed)) 0 seeds
  in
  Alcotest.(check bool) "some client deliveries occurred" true (total > 0)

let test_view_change_recovery_delivers () =
  (* Drive a specific scenario: send values, then force a view change to a
     smaller primary view, and check the new members still confirm. *)
  let prng = Gcs_stdx.Prng.create 99 in
  let g1 = View_id.make ~num:1 ~origin:0 in
  let v1 = View.make g1 [ 0; 1; 2 ] in
  let injected = ref false in
  let inject state r =
    let base = Vstoto_system.inject params ~values state r in
    if not !injected then begin
      injected := true;
      [ Sys_action.Vs (Vs_action.Createview v1) ]
    end
    else
      List.filter
        (function Sys_action.Vs (Vs_action.Createview _) -> false | _ -> true)
        base
  in
  let sched = Scheduler.weighted automaton ~inject ~inject_weight:0.3 in
  let e = Exec.run automaton ~scheduler:sched ~steps:600 ~prng in
  (match To_simulation.check_execution params e with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "simulation: %s" msg);
  Alcotest.(check bool) "deliveries after view change" true
    (count_deliveries e > 0)

(* ------------------------------------------------------------------ *)
(* Erratum: with the literal Figure 10 precondition on [label] (no
   status=normal requirement), a label created between newview and the
   summary send is both ordered by fullorder at establishment and appended
   again on its later VS delivery, so clients can receive it twice. We
   search adversarial schedules for a violation of TO. *)

let literal_params =
  Vstoto_system.make_params ~literal_figure_10:true ~procs ~p0 ~quorums ()

let literal_automaton = Vstoto_system.automaton literal_params

(* The adversarial schedule: processor 0 labels a client value between
   newview and its summary send, so the label reaches everyone twice —
   once through fullorder at establishment, once through VS delivery. *)
let run_adversarial_schedule automaton =
  let steps = ref [] in
  let state = ref automaton.Automaton.initial in
  let apply action =
    match automaton.Automaton.transition !state action with
    | Some s' ->
        steps := { Exec.pre = !state; action; post = s' } :: !steps;
        state := s';
        true
    | None -> false
  in
  let apply_exn action =
    if not (apply action) then
      Alcotest.failf "schedule action not enabled: %s"
        (Format.asprintf "%a" Sys_action.pp action)
  in
  let apply_matching pred =
    match List.find_opt pred (automaton.Automaton.enabled !state) with
    | Some action -> apply_exn action
    | None -> Alcotest.fail "no matching enabled action"
  in
  let drain pred =
    let rec go () =
      match List.find_opt pred (automaton.Automaton.enabled !state) with
      | Some action ->
          apply_exn action;
          go ()
      | None -> ()
    in
    go ()
  in
  let g1 = View_id.make ~num:1 ~origin:0 in
  let v1 = View.make g1 [ 0; 1; 2 ] in
  apply_exn (Sys_action.Bcast (0, "z"));
  apply_exn (Sys_action.Vs (Vs_action.Createview v1));
  List.iter
    (fun p ->
      apply_matching (function
        | Sys_action.Vs (Vs_action.Newview { proc; view }) ->
            Proc.equal proc p && View.equal view v1
        | _ -> false))
    [ 0; 1; 2 ];
  (* The racy label: only enabled under the literal Figure 10 reading. *)
  let label_fired = apply (Sys_action.Label_act (0, "z")) in
  (* Everything after this point is ordinary progress. *)
  let is_gpsnd = function
    | Sys_action.Vs (Vs_action.Gpsnd _) -> true
    | _ -> false
  and is_order = function
    | Sys_action.Vs (Vs_action.Vs_order _) -> true
    | _ -> false
  and is_gprcv = function
    | Sys_action.Vs (Vs_action.Gprcv _) -> true
    | _ -> false
  and is_safe = function
    | Sys_action.Vs (Vs_action.Safe _) -> true
    | _ -> false
  and is_confirm = function Sys_action.Confirm _ -> true | _ -> false
  and is_brcv = function Sys_action.Brcv _ -> true | _ -> false
  in
  drain is_gpsnd;
  drain is_order;
  drain is_gprcv;
  drain is_safe;
  (* The app message sent after establishment. *)
  drain is_gpsnd;
  drain is_order;
  drain is_gprcv;
  drain is_safe;
  drain is_confirm;
  drain is_brcv;
  let execution =
    { Exec.init = automaton.Automaton.initial; steps = List.rev !steps }
  in
  (label_fired, execution)

let test_literal_figure_10_breaks_to () =
  let label_fired, e = run_adversarial_schedule literal_automaton in
  Alcotest.(check bool) "racy label fired under literal reading" true
    label_fired;
  let to_params = To_simulation.abstract_params literal_params in
  let trace_bad =
    Result.is_error (To_trace_checker.check to_params (client_trace e))
  in
  let sim_bad =
    Result.is_error (To_simulation.check_execution literal_params e)
  in
  Alcotest.(check bool)
    "literal Figure 10 violates TO (double ordering observed)" true
    (trace_bad || sim_bad)

let test_corrected_blocks_racy_label () =
  let label_fired, e = run_adversarial_schedule automaton in
  Alcotest.(check bool) "racy label not enabled when corrected" false
    label_fired;
  let to_params = To_simulation.abstract_params params in
  Alcotest.(check bool) "corrected run satisfies TO" true
    (Result.is_ok (To_trace_checker.check to_params (client_trace e)));
  Alcotest.(check bool) "corrected run simulates TO-machine" true
    (Result.is_ok (To_simulation.check_execution params e))

let test_fixed_label_precondition_sound () =
  (* The same adversarial seeds pass with the corrected precondition. *)
  let tried = List.init 20 (fun i -> 1000 + i) in
  List.iter
    (fun seed ->
      match To_simulation.check_execution params (run ~steps:500 seed) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: %s" seed msg)
    tried

(* Pipelining (DESIGN.md "Throughput engineering"): with
   [params.pipeline], labelling and application gpsnd/gprcv are also
   allowed during the collect phase of a state exchange; received
   application messages are held back and applied at establishment. The
   refinement must preserve the Section 6 invariants, the forward
   simulation, and TO at the trace level — under schedules with view
   changes, which is where pipelining actually fires. *)

let pipeline_params =
  Vstoto_system.make_params ~pipeline:true ~procs ~p0 ~quorums ()

let pipeline_automaton = Vstoto_system.automaton pipeline_params

let run_pipeline ?(steps = 350) seed =
  Exec.run pipeline_automaton
    ~scheduler:(scheduler pipeline_params pipeline_automaton)
    ~steps
    ~prng:(Gcs_stdx.Prng.create seed)

let test_pipeline_invariants () =
  match
    Invariant.check_random pipeline_automaton
      ~scheduler:(scheduler pipeline_params pipeline_automaton)
      ~seeds ~steps:350
      (Vstoto_invariants.all pipeline_params)
  with
  | None -> ()
  | Some (v, seed) ->
      Alcotest.failf "pipeline: %s violated at step %d (seed %d): %s"
        v.Invariant.invariant v.Invariant.step_index seed v.Invariant.detail

let test_pipeline_simulation_and_trace () =
  let to_params = To_simulation.abstract_params pipeline_params in
  List.iter
    (fun seed ->
      let e = run_pipeline ~steps:500 seed in
      (match To_simulation.check_execution pipeline_params e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "pipeline seed %d: %s" seed msg);
      match To_trace_checker.check to_params (client_trace e) with
      | Ok () -> ()
      | Error err ->
          Alcotest.failf "pipeline seed %d: %s" seed
            (Format.asprintf "%a" To_trace_checker.pp_error err))
    seeds

let test_pipeline_progress () =
  let total =
    List.fold_left
      (fun acc seed -> acc + count_deliveries (run_pipeline seed))
      0 seeds
  in
  Alcotest.(check bool) "pipelined runs deliver" true (total > 0)

(* Section 4.1 Remark: WeakVS-machine and VS-machine have the same finite
   traces, so the VStoTO safety results hold over WeakVS too. We compose
   with the weak machine, inject createviews with out-of-order
   identifiers, and re-check the invariants and the simulation. *)
let weak_params =
  Vstoto_system.make_params ~weak_vs:true ~procs ~p0 ~quorums ()

let weak_automaton = Vstoto_system.automaton weak_params

let weak_inject state prng =
  let base = Vstoto_system.inject weak_params ~values state prng in
  let no_createviews =
    List.filter
      (function Sys_action.Vs (Vs_action.Createview _) -> false | _ -> true)
      base
  in
  (* Propose ids anywhere in 1..8, so creation order is scrambled. *)
  let num = Gcs_stdx.Prng.int_in prng 1 8 in
  let origin = Gcs_stdx.Prng.pick_exn prng procs in
  let members =
    match Gcs_stdx.Prng.subset prng procs with [] -> [ origin ] | l -> l
  in
  Sys_action.Vs
    (Vs_action.Createview (View.make (View_id.make ~num ~origin) members))
  :: no_createviews

let run_weak seed =
  let sched = Scheduler.weighted weak_automaton ~inject:weak_inject ~inject_weight:0.3 in
  Exec.run weak_automaton ~scheduler:sched ~steps:350
    ~prng:(Gcs_stdx.Prng.create seed)

let test_weak_vs_composition () =
  List.iter
    (fun seed ->
      let e = run_weak seed in
      (match
         Invariant.first_violation (Vstoto_invariants.all weak_params) e
       with
      | None -> ()
      | Some v ->
          Alcotest.failf "weak seed %d: %s at step %d: %s" seed
            v.Invariant.invariant v.Invariant.step_index v.Invariant.detail);
      match To_simulation.check_execution weak_params e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "weak seed %d: %s" seed msg)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let prop_invariants_hold =
  QCheck.Test.make ~name:"Section 6 invariants on random executions" ~count:10
    QCheck.small_nat
    (fun seed ->
      Invariant.first_violation (Vstoto_invariants.all params)
        (run ~steps:250 (seed + 500))
      = None)

(* The one-pass drain against the specification: from node states of
   random system executions (with and without pipelining), plus the same
   states with values waiting in [delay] and with all or half of the
   ordered labels made safe (so confirms are pending), [Vstoto.drain]
   must reach the
   same state and emit the same gpsnd/brcv actions as stepping the first
   enabled action of [Vstoto.automaton] one at a time. *)

let step_drain params state =
  let a = Vstoto.automaton params in
  let rec go state out_rev =
    match a.Automaton.enabled state with
    | [] -> (state, List.rev out_rev)
    | action :: _ -> (
        let state = Automaton.step_exn a state action in
        match action with
        | Sys_action.Vs (Vs_action.Gpsnd _) | Sys_action.Brcv _ ->
            go state (action :: out_rev)
        | Sys_action.Label_act _ | Sys_action.Confirm _ | Sys_action.Bcast _
        | Sys_action.Vs _ ->
            go state out_rev)
  in
  go state []

let drain_variants params state =
  let delayed =
    List.fold_left
      (fun s v ->
        Automaton.step_exn (Vstoto.automaton params) s
          (Sys_action.Bcast (params.Vstoto.me, v)))
      state [ "x"; "y"; "z" ]
  in
  (* Make the first [k] labels of [order] safe: confirms become pending
     up to position [k], and stop there when [k] falls short. *)
  let safe_upto k s =
    {
      s with
      Vstoto.safe_labels =
        List.fold_left
          (fun acc l -> Label.Set.add l acc)
          s.Vstoto.safe_labels
          (List.filteri (fun i _ -> i < k) (Gcs_stdx.Tape.to_list s.Vstoto.order));
    }
  in
  let all_safe s = safe_upto (Gcs_stdx.Tape.length s.Vstoto.order) s in
  let half_safe s =
    safe_upto ((s.Vstoto.nextconfirm + Gcs_stdx.Tape.length s.Vstoto.order) / 2) s
  in
  [ state; delayed; all_safe state; half_safe state; all_safe delayed ]

(* Node states (with their params) of one random execution. *)
let sampled_nodes ~pipeline seed =
  let params, automaton =
    if pipeline then (pipeline_params, pipeline_automaton)
    else (params, automaton)
  in
  let e = run ~steps:250 ~params ~automaton seed in
  List.concat_map
    (fun st ->
      List.map
        (fun p ->
          (Vstoto_system.node_params params p, Vstoto_system.node st p))
        procs)
    (Exec.states e)

let drain_agrees (params, state) =
  List.for_all
    (fun s ->
      let s1, out1 = Vstoto.drain params s in
      let s2, out2 = step_drain params s in
      Vstoto.equal_state s1 s2 && List.equal Sys_action.equal out1 out2)
    (drain_variants params state)

let prop_drain_matches_stepping =
  QCheck.Test.make ~name:"one-pass drain equals stepping the automaton"
    ~count:50
    QCheck.(pair small_nat bool)
    (fun (seed, pipeline) ->
      List.for_all drain_agrees (sampled_nodes ~pipeline (seed + 900)))

(* The sampled states reach the cases the runs exist for: a state
   exchange in progress (both phases) with values waiting, and, with
   pipelining, labelling resumed during collect. *)
let test_drain_samples_cover_exchange () =
  let nodes =
    List.concat_map
      (fun seed ->
        sampled_nodes ~pipeline:false seed @ sampled_nodes ~pipeline:true seed)
      [ 900; 901; 902; 903; 904 ]
  in
  let count pred = List.length (List.filter pred nodes) in
  let status st (_, s) = Vstoto.status_equal s.Vstoto.status st in
  Alcotest.(check bool) "send states sampled" true (count (status Vstoto.Send) > 0);
  Alcotest.(check bool) "collect states sampled" true
    (count (status Vstoto.Collect) > 0);
  Alcotest.(check bool) "pending confirms sampled" true
    (count (fun (params, s) ->
         match Vstoto.drain params s with
         | s', _ -> s'.Vstoto.nextconfirm > s.Vstoto.nextconfirm)
    > 0)

let () =
  Alcotest.run "vstoto"
    [
      ( "safety",
        [
          Alcotest.test_case "Lemmas 6.1-6.24 invariants" `Slow test_invariants;
          Alcotest.test_case "forward simulation (Lemma 6.25)" `Quick
            test_forward_simulation;
          Alcotest.test_case "client trace is a TO trace (Thm 6.26)" `Quick
            test_trace_is_to_trace;
          Alcotest.test_case "progress happens" `Quick test_progress_happens;
          Alcotest.test_case "recovery after view change" `Quick
            test_view_change_recovery_delivers;
          Alcotest.test_case "WeakVS composition (4.1 Remark)" `Slow
            test_weak_vs_composition;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "invariants hold with pipelining" `Slow
            test_pipeline_invariants;
          Alcotest.test_case "simulation + TO trace with pipelining" `Quick
            test_pipeline_simulation_and_trace;
          Alcotest.test_case "pipelined runs deliver" `Quick
            test_pipeline_progress;
        ] );
      ( "erratum",
        [
          Alcotest.test_case "literal Figure 10 breaks TO" `Quick
            test_literal_figure_10_breaks_to;
          Alcotest.test_case "corrected precondition blocks the race" `Quick
            test_corrected_blocks_racy_label;
          Alcotest.test_case "corrected precondition is sound" `Slow
            test_fixed_label_precondition_sound;
        ] );
      ( "drain",
        [
          Alcotest.test_case "samples cover the state exchange" `Quick
            test_drain_samples_cover_exchange;
          QCheck_alcotest.to_alcotest prop_drain_matches_stepping;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_invariants_hold ]);
    ]
