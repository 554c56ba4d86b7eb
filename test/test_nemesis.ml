(* Tests for the nemesis fault-injection subsystem: built-in scenarios
   drive the full VStoTO-over-VS stack (and the bare token ring) through
   partitions, heals, crashes and degradations; every run must satisfy
   both trace checkers and — since every built-in ends fully healed —
   the post-stabilization delivery bound of Theorem 7.2. Random
   schedules must be reproducible from their seed alone. *)

open Gcs_core
open Gcs_impl
open Gcs_nemesis

let n = 5
let procs = Proc.all ~n
let delta = 1.0
let vs_config = { Vs_node.procs; p0 = procs; pi = 8.0; mu = 10.0; delta }
let config = To_service.make_config vs_config

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let check_outcome name outcome =
  if not (Harness.passed outcome) then
    Alcotest.failf "%s (seed %d): %s" name outcome.Harness.seed
      (Harness.to_json outcome)

(* ------------------------- built-in scenarios ------------------------- *)

let test_builtin_scenarios () =
  List.iter
    (fun (name, scenario) ->
      let outcome = Harness.run ~config ~seed:1 scenario in
      check_outcome name outcome;
      Alcotest.(check bool)
        (Printf.sprintf "%s: deliveries happened" name)
        true
        (outcome.Harness.deliveries > 0))
    (Scenario.builtins ~procs)

let test_crash_primary_recovers () =
  (* The crash-recover of a primary-view member: the leader (processor 0)
     of the initial primary view goes down and comes back; afterwards
     every submitted value reaches every processor. *)
  let scenario = Option.get (Scenario.find_builtin ~procs "crash-primary") in
  let workload = Harness.default_workload ~procs ~count:6 () in
  let outcome = Harness.run ~config ~workload ~seed:3 scenario in
  check_outcome "crash-primary" outcome;
  Alcotest.(check int) "full delivery after recovery" (6 * n * n)
    outcome.Harness.deliveries

let test_minority_isolation_blocks_then_merges () =
  let scenario =
    Option.get (Scenario.find_builtin ~procs "minority-isolation")
  in
  let outcome = Harness.run ~config ~seed:5 scenario in
  check_outcome "minority-isolation" outcome

let test_quorum_flap () =
  List.iter
    (fun seed ->
      let scenario = Option.get (Scenario.find_builtin ~procs "quorum-flap") in
      check_outcome "quorum-flap" (Harness.run ~config ~seed scenario))
    [ 1; 2; 3 ]

(* ---------------------- impl-layer token ring ------------------------- *)

let test_vs_ring_under_nemesis () =
  List.iter
    (fun name ->
      let scenario = Option.get (Scenario.find_builtin ~procs name) in
      let outcome = Harness.run_vs_ring ~config:vs_config ~seed:2 scenario in
      (match outcome.Harness.vs_ring_conformance with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: VS ring trace rejected: %s" name e);
      Alcotest.(check bool)
        (Printf.sprintf "%s: ring views installed" name)
        true
        (outcome.Harness.views_installed > 0))
    [ "split-heal"; "crash-primary"; "churn" ]

(* ------------------------- scenario compiler -------------------------- *)

let test_compile_world_semantics () =
  let scenario =
    Scenario.v "w"
      [
        Scenario.at 10.0 (Scenario.Partition [ [ 0; 1 ]; [ 2; 3; 4 ] ]);
        Scenario.at 20.0 (Scenario.Crash 2);
        Scenario.at 30.0 (Scenario.Degrade (0, 1, Fstatus.Ugly));
        Scenario.at 40.0 Scenario.Heal;
        Scenario.at 50.0 (Scenario.Recover 2);
      ]
  in
  let world = Scenario.final_world ~procs scenario in
  Alcotest.(check bool) "ends all good" true (Scenario.all_good ~procs world);
  (* Replay the compiled schedule through a tracker and probe statuses at
     interesting times. *)
  let tracker_at t =
    List.fold_left
      (fun tracker (time, e) ->
        if time <= t then Fstatus.apply tracker e else tracker)
      Fstatus.initial
      (Scenario.compile ~procs scenario)
  in
  let t25 = tracker_at 25.0 in
  Alcotest.(check bool) "crashed proc bad" true
    (Fstatus.equal (Fstatus.proc_status t25 2) Fstatus.Bad);
  Alcotest.(check bool) "crashed proc links bad" true
    (Fstatus.equal (Fstatus.link_status t25 3 2) Fstatus.Bad);
  Alcotest.(check bool) "cross-part link bad" true
    (Fstatus.equal (Fstatus.link_status t25 0 3) Fstatus.Bad);
  Alcotest.(check bool) "same-part link good" true
    (Fstatus.equal (Fstatus.link_status t25 0 1) Fstatus.Good);
  let t35 = tracker_at 35.0 in
  Alcotest.(check bool) "degraded link ugly" true
    (Fstatus.equal (Fstatus.link_status t35 0 1) Fstatus.Ugly);
  Alcotest.(check bool) "reverse direction unaffected" true
    (Fstatus.equal (Fstatus.link_status t35 1 0) Fstatus.Good);
  let t45 = tracker_at 45.0 in
  Alcotest.(check bool) "heal clears degradation" true
    (Fstatus.equal (Fstatus.link_status t45 0 1) Fstatus.Good);
  Alcotest.(check bool) "heal does not resurrect crashed proc" true
    (Fstatus.equal (Fstatus.proc_status t45 2) Fstatus.Bad);
  let t55 = tracker_at 55.0 in
  Alcotest.(check bool) "recover restores proc" true
    (Fstatus.equal (Fstatus.proc_status t55 2) Fstatus.Good);
  Alcotest.(check bool) "recover restores links" true
    (Fstatus.equal (Fstatus.link_status t55 3 2) Fstatus.Good)

let test_partition_validation () =
  Alcotest.check_raises "overlapping parts rejected"
    (Invalid_argument "nemesis: overlapping partition parts") (fun () ->
      ignore
        (Scenario.apply_op ~procs
           (Scenario.initial_world ~procs)
           (Scenario.Partition [ [ 0; 1 ]; [ 1; 2 ] ])));
  Alcotest.check_raises "unknown processor rejected"
    (Invalid_argument "nemesis: unknown processor 9") (fun () ->
      ignore
        (Scenario.apply_op ~procs
           (Scenario.initial_world ~procs)
           (Scenario.Crash 9)));
  (* Unmentioned processors become singleton parts. *)
  let world =
    Scenario.apply_op ~procs
      (Scenario.initial_world ~procs)
      (Scenario.Partition [ [ 0; 1; 2 ] ])
  in
  Alcotest.(check int) "singletons added" 3 (List.length world.Scenario.parts)

(* ----------------------- seeded random nemesis ------------------------ *)

let test_random_reproducible () =
  List.iter
    (fun seed ->
      let s1 = Gen.scenario ~procs ~seed () in
      let s2 = Gen.scenario ~procs ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: identical schedules" seed)
        true
        (Scenario.compile ~procs s1 = Scenario.compile ~procs s2);
      let o1 = Harness.run ~config ~seed s1 in
      let o2 = Harness.run ~config ~seed s2 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: identical outcomes" seed)
        (Harness.to_json o1) (Harness.to_json o2))
    [ 7; 42 ]

let test_random_seeds_pass () =
  List.iter
    (fun seed ->
      let scenario = Gen.scenario ~procs ~seed () in
      let outcome = Harness.run ~config ~seed scenario in
      check_outcome scenario.Scenario.name outcome)
    [ 1; 2; 3; 4 ]

(* The runner judges every scenario by the delivery bound, whose premise
   is a world that ends fully good: every built-in and every generated
   schedule must meet it, and a scenario that does not is refused rather
   than reported as a bound violation. *)
let test_schedules_end_good () =
  let ends_good scenario =
    Scenario.all_good ~procs (Scenario.final_world ~procs scenario)
  in
  List.iter
    (fun (name, scenario) ->
      Alcotest.(check bool) (name ^ " ends fully good") true (ends_good scenario))
    (Scenario.builtins ~procs);
  List.iter
    (fun seed ->
      let scenario = Gen.scenario ~procs ~events:(8 + (seed mod 5)) ~seed () in
      if not (ends_good scenario) then
        Alcotest.failf "generated seed %d ends degraded" seed)
    (List.init 1000 (fun i -> 1 + (i * 13)))

let test_degraded_rejected () =
  let scenario =
    Scenario.v "ends-split"
      [ Scenario.at 20.0 (Scenario.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]) ]
  in
  match Harness.run ~config ~seed:1 scenario with
  | _ -> Alcotest.fail "a scenario ending degraded was judged"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "the error names the scenario" true
        (contains msg "ends-split")

(* ------------------- every service through the runner ----------------- *)

module Service = Gcs_conformance.Service
module Services = Gcs_conformance.Services

let soak_iters =
  match Sys.getenv_opt "GCS_SOAK_ITERS" with
  | Some s -> ( match int_of_string_opt s with Some k when k > 0 -> k | _ -> 20)
  | None -> 20

(* One nemesis schedule on any service, through the runner [Harness.run]
   wraps: the default workload lifted into the service's inputs, on the
   simulator, to the service's settle time plus its slack. *)
let judge service ~seed scenario =
  let (module S : Service.S) = service in
  let config = S.configure config in
  let workload =
    List.map
      (fun (t, p, v) -> (t, p, S.lift config p v))
      (Harness.default_workload ~procs ())
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
  Harness.judge (module S)
    ~backend:(Service.sim service ~delta)
    config ~workload ~until ~seed scenario

(* Every built-in under seeds 1-5, then GCS_SOAK_ITERS generated
   schedules (seeds 1..K); every verdict must be clean. *)
let sweep service () =
  let schedules =
    List.concat_map
      (fun (_, scenario) -> List.init 5 (fun i -> (i + 1, scenario)))
      (Scenario.builtins ~procs)
    @ List.init soak_iters (fun i ->
          let seed = i + 1 in
          (seed, Gen.scenario ~procs ~seed ()))
  in
  let outcomes =
    Gcs_stdx.Pool.map
      (fun (seed, scenario) -> judge service ~seed scenario)
      schedules
  in
  (match List.filter (fun o -> not (Harness.passed o)) outcomes with
  | [] -> ()
  | o :: _ as failed ->
      Alcotest.failf "%s: %d of %d schedules failed, first: %s"
        (Service.name service) (List.length failed) (List.length outcomes)
        (Harness.to_json o));
  Alcotest.(check bool) "deliveries happened" true
    (List.exists (fun o -> o.Harness.deliveries > 0) outcomes)

(* ------------------------------ output -------------------------------- *)

(* Round-trip the emitted JSON through the real parser (Gcs_stdx.Jsonx):
   scenario names containing every escape class the emitter handles —
   quotes, backslashes, tabs, CR, LF, other controls — must come back
   byte-identical, and the numeric fields must parse. *)
let nasty_names =
  [
    "tab\there";
    "cr\rreturn";
    "quote\"and\\backslash";
    "newline\nsplit";
    "bell\x07control";
  ]

let run_named name =
  let scenario =
    Scenario.v name
      [
        Scenario.at 20.0 (Scenario.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
        Scenario.at 60.0 Scenario.Heal;
      ]
  in
  Harness.run ~config ~seed:2 scenario

let test_json_roundtrip () =
  List.iter
    (fun name ->
      let outcome = run_named name in
      List.iter
        (fun json ->
          match Gcs_stdx.Jsonx.of_string json with
          | Error e -> Alcotest.failf "emitted JSON does not parse: %s\n%s" e json
          | Ok parsed ->
              let str key =
                Option.bind (Gcs_stdx.Jsonx.member key parsed)
                  Gcs_stdx.Jsonx.to_string
              in
              let num key =
                Option.bind (Gcs_stdx.Jsonx.member key parsed)
                  Gcs_stdx.Jsonx.to_float
              in
              Alcotest.(check (option string))
                "scenario name round-trips byte-identically" (Some name)
                (str "scenario");
              Alcotest.(check (option (float 0.0001)))
                "seed parses" (Some 2.0) (num "seed");
              Alcotest.(check (option (float 0.0001)))
                "stabilization parses" (Some 60.0) (num "stabilization"))
        [ Harness.to_json outcome; Harness.to_json_with_metrics outcome ])
    nasty_names

let test_json_with_metrics_shape () =
  let outcome = run_named "metrics-shape" in
  match Gcs_stdx.Jsonx.of_string (Harness.to_json_with_metrics outcome) with
  | Error e -> Alcotest.failf "unparseable: %s" e
  | Ok parsed -> (
      match Gcs_stdx.Jsonx.member "metrics" parsed with
      | None -> Alcotest.fail "no metrics member"
      | Some metrics ->
          let counter name =
            match
              Option.bind (Gcs_stdx.Jsonx.member name metrics)
                Gcs_stdx.Jsonx.to_float
            with
            | Some f -> int_of_float f
            | None -> 0
          in
          (* The pre/post-stabilization splits partition the totals. *)
          Alcotest.(check int) "bcast phases sum" outcome.Harness.bcasts
            (counter "harness.bcasts.pre_stabilization"
            + counter "harness.bcasts.post_stabilization");
          Alcotest.(check int) "delivery phases sum" outcome.Harness.deliveries
            (counter "harness.deliveries.pre_stabilization"
            + counter "harness.deliveries.post_stabilization");
          Alcotest.(check int) "engine totals mirrored"
            outcome.Harness.events_processed
            (counter "engine.events_processed");
          Alcotest.(check bool) "vs layer counted" true
            (counter "vs.views_installed" > 0))

(* ------------------- run_vs_ring honors workloads --------------------- *)

let test_vs_ring_workload_honored () =
  let scenario = Option.get (Scenario.find_builtin ~procs "split-heal") in
  (* An empty workload must yield zero deliveries — the regression was a
     hardcoded default workload that ignored the caller's. *)
  let silent =
    Harness.run_vs_ring ~workload:[] ~config:vs_config ~seed:2 scenario
  in
  Alcotest.(check int) "empty workload delivers nothing" 0
    silent.Harness.ring_deliveries;
  (match silent.Harness.vs_ring_conformance with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty-workload ring trace rejected: %s" e);
  (* A single message from processor 0 reaches all five ring members. *)
  let one =
    Harness.run_vs_ring
      ~workload:[ (30.0, 0, "only") ]
      ~config:vs_config ~seed:2 scenario
  in
  Alcotest.(check int) "single message delivered to every member" n
    one.Harness.ring_deliveries;
  (* The default workload still applies when none is given. *)
  let default = Harness.run_vs_ring ~config:vs_config ~seed:2 scenario in
  Alcotest.(check bool) "default workload still used" true
    (default.Harness.ring_deliveries > n)

let test_json_shape () =
  let scenario = Option.get (Scenario.find_builtin ~procs "split-heal") in
  let json = Harness.to_json (Harness.run ~config ~seed:1 scenario) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true (contains json needle))
    [
      {|"scenario":"split-heal"|};
      {|"seed":1|};
      {|"failure":null|};
      {|"passed":true|};
    ]

let () =
  Alcotest.run "nemesis"
    [
      ( "scenarios",
        [
          Alcotest.test_case "all built-ins pass checkers and bound" `Slow
            test_builtin_scenarios;
          Alcotest.test_case "crash-primary fully recovers" `Quick
            test_crash_primary_recovers;
          Alcotest.test_case "minority isolation" `Quick
            test_minority_isolation_blocks_then_merges;
          Alcotest.test_case "quorum flapping" `Slow test_quorum_flap;
          Alcotest.test_case "impl token ring under nemesis" `Quick
            test_vs_ring_under_nemesis;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "world semantics" `Quick
            test_compile_world_semantics;
          Alcotest.test_case "partition validation" `Quick
            test_partition_validation;
        ] );
      ( "random",
        [
          Alcotest.test_case "reproducible from seed" `Quick
            test_random_reproducible;
          Alcotest.test_case "random seeds pass" `Slow test_random_seeds_pass;
          Alcotest.test_case "random schedules end fully good" `Quick
            test_schedules_end_good;
          Alcotest.test_case "a scenario ending degraded is rejected" `Quick
            test_degraded_rejected;
        ] );
      ( "services",
        [
          Alcotest.test_case "skeen: built-ins and generated schedules" `Slow
            (sweep Services.skeen);
          Alcotest.test_case "sequencer: built-ins and generated schedules"
            `Slow (sweep Services.sequencer);
        ] );
      ( "output",
        [
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "json round-trips through Jsonx" `Quick
            test_json_roundtrip;
          Alcotest.test_case "metrics member shape" `Quick
            test_json_with_metrics_shape;
          Alcotest.test_case "run_vs_ring honors caller workloads" `Quick
            test_vs_ring_workload_honored;
        ] );
    ]
