(* Tests for the VStoTO algorithm over the VS-machine specification:
   - the Section 6.1 invariants (Lemmas 6.1-6.24) on random executions,
   - the forward simulation to TO-machine (Lemma 6.25 / Theorem 6.26),
   - acceptance of the client-level trace by the TO trace checker,
   - the Figure 10 label-precondition erratum (see DESIGN.md),
   - the scripted schedule that broke the pipelined state exchange. *)

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

(* The fuzzer's node-local oracle ([Oracle.vstoto_invariants]), checked
   at every node of a system state. *)
let node_oracle (params : Vstoto_system.params) =
  List.map
    (fun (inv : Vstoto.state Invariant.t) ->
      Invariant.make_explained ("node " ^ inv.Invariant.name) (fun st ->
          match
            List.find_map
              (fun p ->
                match inv.Invariant.check (Vstoto_system.node st p) with
                | Ok () -> None
                | Error detail -> Some (Printf.sprintf "proc %d: %s" p detail))
              params.Vstoto_system.procs
          with
          | None -> Ok ()
          | Some detail -> Error detail))
    Gcs_conformance.Oracle.vstoto_invariants

let all_invariants params = Vstoto_invariants.all params @ node_oracle params

let test_invariants () =
  match
    Invariant.check_random automaton
      ~scheduler:(scheduler params automaton)
      ~seeds ~steps:350 (all_invariants params)
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

(* ------------------------------------------------------------------ *)
(* The state-exchange counterexample (DESIGN.md "Throughput engineering",
   EXPERIMENTS X30). Five processors, all in P0, majority quorums. The
   script lists the actions it intends; each is taken only if it is
   enabled. While members could label and send during their exchange
   (the deleted pipelining), p1's App(l) was ordered between the
   summaries of p0/p1 and those of p2-p4; p0 confirmed l with two
   summaries safe and delivered "a" at position 1, and the primary
   {2,3,4} later delivered "b" there. Lemma 6.20 failed from step 44
   and the confirm prefixes diverged. Now p1 labels only once it has
   established, so App(l) follows every summary. *)

let cx_procs = Proc.all ~n:5

let cx_params =
  Vstoto_system.make_params ~procs:cx_procs ~p0:cx_procs
    ~quorums:(Quorum.majorities ~n:5) ()

type intent =
  | Input of Sys_action.t  (** an input or [createview], if enabled *)
  | Pick of (Sys_action.t -> bool)  (** the first enabled match, if any *)

let g1 = View_id.make ~num:1 ~origin:0
let v1 = View.make g1 cx_procs
let v2 = View.make (View_id.make ~num:2 ~origin:2) [ 2; 3; 4 ]

let counterexample_script =
  let vs pred = Pick (function Sys_action.Vs a -> pred a | _ -> false) in
  let newview v p =
    vs (function
      | Vs_action.Newview { proc; view } -> proc = p && View.equal view v
      | _ -> false)
  in
  let summary p =
    vs (function
      | Vs_action.Gpsnd { sender; msg = Msg.Summary _ } -> sender = p
      | _ -> false)
  in
  let app p =
    vs (function
      | Vs_action.Gpsnd { sender; msg = Msg.App _ | Msg.Batch _ } -> sender = p
      | _ -> false)
  in
  let order p =
    vs (function Vs_action.Vs_order { sender; _ } -> sender = p | _ -> false)
  in
  let gprcv q =
    vs (function Vs_action.Gprcv { dst; _ } -> dst = q | _ -> false)
  in
  let safe q = vs (function Vs_action.Safe { dst; _ } -> dst = q | _ -> false) in
  let label p =
    Pick (function Sys_action.Label_act (q, _) -> q = p | _ -> false)
  in
  let confirm p = Pick (function Sys_action.Confirm q -> q = p | _ -> false) in
  let brcv p =
    Pick (function Sys_action.Brcv { dst; _ } -> dst = p | _ -> false)
  in
  let times k i = List.init k (fun _ -> i) in
  let each ps f = List.concat_map f ps in
  List.concat
    [
      (* 1. v1 = <g1, {0..4}> at all five members. *)
      [ Input (Sys_action.Vs (Vs_action.Createview v1)) ];
      each cx_procs (fun p -> [ newview v1 p ]);
      (* 2. p0's and p1's summaries, sent and ordered. *)
      each [ 0; 1 ] (fun p -> [ summary p; order p ]);
      (* 3. bcast(1,"a"): p1, in collect, would label and send it here. *)
      [ Input (Sys_action.Bcast (1, "a")); label 1; app 1; order 1 ];
      (* 4. p2-p4's summaries. *)
      each [ 2; 3; 4 ] (fun p -> [ summary p; order p ]);
      (* 5. p0 and p1 receive six messages, p2-p4 the first three. *)
      each [ 0; 1 ] (fun q -> times 6 (gprcv q));
      each [ 2; 3; 4 ] (fun q -> times 3 (gprcv q));
      (* p1, established now, labels and sends "a". *)
      [ label 1; app 1; order 1 ];
      (* 6. p0: three safes, then confirm and deliver what it may. *)
      times 3 (safe 0);
      [ confirm 0; brcv 0 ];
      (* 7. v2 = <g2, {2,3,4}>, a primary: 3 of 5. *)
      [ Input (Sys_action.Vs (Vs_action.Createview v2)) ];
      each [ 2; 3; 4 ] (fun p -> [ newview v2 p ]);
      (* 8. p2-p4 exchange summaries; bcast(3,"b") is labelled, sent,
         made safe, and p2 delivers it. *)
      each [ 2; 3; 4 ] (fun p -> [ summary p; order p ]);
      each [ 2; 3; 4 ] (fun q -> times 3 (gprcv q));
      each [ 2; 3; 4 ] (fun q -> times 3 (safe q));
      [ Input (Sys_action.Bcast (3, "b")); label 3; app 3; order 3 ];
      each [ 2; 3; 4 ] (fun q -> [ gprcv q ]);
      each [ 2; 3; 4 ] (fun q -> [ safe q ]);
      [ confirm 2; brcv 2 ];
    ]

let run_script params script =
  let automaton = Vstoto_system.automaton params in
  let take state = function
    | Input action -> Some action
    | Pick pred -> List.find_opt pred (automaton.Automaton.enabled state)
  in
  let _, steps_rev =
    List.fold_left
      (fun (state, steps_rev) intent ->
        match
          Option.bind (take state intent) (fun action ->
              Option.map
                (fun post -> { Exec.pre = state; action; post })
                (automaton.Automaton.transition state action))
        with
        | None -> (state, steps_rev)
        | Some step -> (step.Exec.post, step :: steps_rev))
      (automaton.Automaton.initial, [])
      script
  in
  { Exec.init = automaton.Automaton.initial; steps = List.rev steps_rev }

(* No two members report different labels at the same position. *)
let reports_agree (params : Vstoto_system.params) =
  Invariant.make_explained "reported orders consistent" (fun st ->
      let reported p =
        let n = Vstoto_system.node st p in
        Gcs_stdx.Seqx.take (n.Vstoto.nextreport - 1)
          (Gcs_stdx.Tape.to_list n.Vstoto.order)
      in
      let procs = params.Vstoto_system.procs in
      let disagree p q =
        not
          (Gcs_stdx.Seqx.consistent ~equal:Label.equal (reported p)
             (reported q))
      in
      match
        List.find_map
          (fun p ->
            Option.map (fun q -> (p, q)) (List.find_opt (disagree p) procs))
          procs
      with
      | None -> Ok ()
      | Some (p, q) -> Error (Printf.sprintf "procs %d and %d disagree" p q))

let test_exchange_counterexample () =
  let e = run_script cx_params counterexample_script in
  (match
     Invariant.first_violation
       (reports_agree cx_params :: all_invariants cx_params)
       e
   with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s violated at step %d: %s" v.Invariant.invariant
        v.Invariant.step_index v.Invariant.detail);
  (match To_simulation.check_execution cx_params e with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let final = Exec.final e in
  (* p1 sent App(l) once established: it follows every summary of g1. *)
  let queue =
    Option.value ~default:[]
      (View_id.Map.find_opt g1 final.Vstoto_system.vs.Vs_machine.queue)
  in
  Alcotest.(check (list string))
    "g1's VS order: five summaries, then p1's App"
    [ "S0"; "S1"; "S2"; "S3"; "S4"; "A1" ]
    (List.map
       (fun (m, p) ->
         match m with
         | Msg.Summary _ -> Printf.sprintf "S%d" p
         | Msg.App _ | Msg.Batch _ -> Printf.sprintf "A%d" p)
       queue);
  Alcotest.(check int) "p0 delivered nothing" 1
    (Vstoto_system.node final 0).Vstoto.nextreport;
  Alcotest.(check (list string)) "p2 delivered b" [ "b" ]
    (List.filter_map
       (function
         | Sys_action.Brcv { dst = 2; value; _ } -> Some value | _ -> None)
       (Exec.actions e))

(* A post-state whose two nodes confirmed different labels at position 1
   has no abstraction ([allconfirm] is inconsistent): the check names the
   step instead of raising. *)
let test_simulation_error_not_raise () =
  let init = automaton.Automaton.initial in
  let confirmed l value node =
    {
      node with
      Vstoto.content = Label.Map.add l value node.Vstoto.content;
      order = Gcs_stdx.Tape.of_list [ l ];
      nextconfirm = 2;
    }
  in
  let l0 = Label.make ~id:View_id.g0 ~seqno:1 ~origin:0 in
  let l1 = Label.make ~id:View_id.g0 ~seqno:1 ~origin:1 in
  let nodes =
    init.Vstoto_system.nodes
    |> Proc.Map.update 0 (Option.map (confirmed l0 "x"))
    |> Proc.Map.update 1 (Option.map (confirmed l1 "y"))
  in
  let step =
    {
      Exec.pre = init;
      action = Sys_action.Confirm 0;
      post = { init with Vstoto_system.nodes };
    }
  in
  match To_simulation.check_execution params { Exec.init; steps = [ step ] } with
  | Ok () -> Alcotest.fail "conflicting confirms simulated"
  | Error msg ->
      Alcotest.(check string) "reported as a step failure"
        "simulation fails at step 1 on confirm_0: to_simulation: \
         inconsistent confirm prefixes"
        msg

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
      (match Invariant.first_violation (all_invariants weak_params) e with
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
      Invariant.first_violation (all_invariants params)
        (run ~steps:250 (seed + 500))
      = None)

(* The one-pass drain against the specification: from node states of
   random system executions, plus the same states with values waiting in
   [delay] and with all or half of the ordered labels made safe (so
   confirms are pending), [Vstoto.drain] must reach the same state and
   emit the same gpsnd/brcv actions as stepping the first enabled action
   of [Vstoto.automaton] one at a time. *)

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
let sampled_nodes seed =
  let e = run ~steps:250 seed in
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
    ~count:50 QCheck.small_nat
    (fun seed -> List.for_all drain_agrees (sampled_nodes (seed + 900)))

(* The sampled states reach the cases the runs exist for: a state
   exchange in progress (both phases) with values waiting. *)
let test_drain_samples_cover_exchange () =
  let nodes = List.concat_map sampled_nodes [ 900; 901; 902; 903; 904 ] in
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
          Alcotest.test_case "simulation failure is an Error, not a raise"
            `Quick test_simulation_error_not_raise;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "scripted pipelining counterexample" `Quick
            test_exchange_counterexample;
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
