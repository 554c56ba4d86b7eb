(* Golden digests of seeded simulator runs: the trace, final-state count
   and packet counts of one run per total-order service, plus the
   observable results of short fuzz campaigns. The digests were recorded
   before the services were folded behind one signature
   (Gcs_conformance.Service), and every later change must reproduce
   them: the `verify` benchmark workload, persisted fuzz corpora and
   repro files all depend on simulated behaviour staying byte-identical.
   A deliberate behaviour change re-records them and says so: the
   VStoTO digests, counts and fuzz stats were re-recorded when the
   leader began launching the token on a member's [Want], the
   vstoto-sequencer campaign when every simulated pair began adding the
   candidate's coverage to the reference's, and the four VStoTO fuzz
   campaigns when the VStoTO snapshot lost its pipelining fields (its
   text feeds the fuzzy state-hash features; every simulated run is
   unchanged). *)

open Gcs_core
open Gcs_impl
open Gcs_nemesis
open Gcs_fuzz
module Service = Gcs_conformance.Service
module Services = Gcs_conformance.Services

let hex s = Digest.to_hex (Digest.string s)

(* Exact rendering: %h prints floats in hexadecimal, so every bit of
   every timestamp counts. *)
let render_out trace =
  String.concat "\n"
    (List.map
       (fun { Timed.time; item } ->
         match item with
         | Timed.Status e -> Format.asprintf "%h status %a" time Fstatus.pp_event e
         | Timed.Action (To_service.Client a) ->
             Format.asprintf "%h client %a" time (To_action.pp Value.pp) a
         | Timed.Action (To_service.Vs_layer a) ->
             Format.asprintf "%h vs %a" time (Vs_action.pp Msg.pp) a)
       trace)

let vs_config n =
  let procs = Proc.all ~n in
  { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }

(* VStoTO through [Harness.run] on a built-in nemesis scenario, and the
   same run's full trace (client and VS layer). The outcome digest was
   re-recorded when the outcome JSON moved to [Jsonx] and a single
   ["failure"] member replaced the per-checker fields; its ["metrics"]
   member is byte-equal to the one recorded before. *)
let test_vstoto () =
  let config = To_service.make_config (vs_config 5) in
  let procs = config.To_service.vs.Vs_node.procs in
  let scenario = Option.get (Scenario.find_builtin ~procs "split-heal") in
  let outcome = Harness.run ~config ~seed:7 scenario in
  Alcotest.(check string)
    "harness outcome and metrics" "23133ec65d7286e202953b3066f7ab39"
    (hex (Harness.to_json_with_metrics outcome));
  let run =
    To_service.run config
      ~workload:(Harness.default_workload ~procs ())
      ~failures:(Scenario.compile ~procs scenario)
      ~until:(Harness.default_until ~config scenario)
      ~seed:7
  in
  Alcotest.(check string)
    "trace" "8f912c926d72220a1bbd6f271f57dc9e"
    (hex (render_out run.To_service.trace));
  Alcotest.(check (list int))
    "final states, packets sent/dropped, events" [ 5; 692; 155; 1570 ]
    [
      Proc.Map.cardinal run.To_service.final_nodes;
      run.To_service.packets_sent;
      run.To_service.packets_dropped;
      run.To_service.events_processed;
    ]

let split procs =
  Scenario.compile ~procs
    (Scenario.v "split"
       [
         Scenario.at 20.0 (Scenario.Partition [ [ 0; 1; 2 ]; [ 3 ] ]);
         Scenario.at 50.0 Scenario.Heal;
       ])

(* Skeen on a mixed-addressing workload (full group, pairs, triples)
   through a partition, on FIFO simulated links. *)
let test_skeen () =
  let module K = Gcs_skeen.Skeen in
  let procs = Proc.all ~n:4 in
  let n = List.length procs in
  let subset p k =
    match (p + k) mod 3 with
    | 0 -> []
    | 1 -> [ List.nth procs (p mod n); List.nth procs ((p + 1) mod n) ]
    | _ ->
        [
          List.nth procs (k mod n);
          List.nth procs ((k + 1) mod n);
          List.nth procs ((k + 2) mod n);
        ]
  in
  let workload =
    List.concat_map
      (fun p ->
        List.init 5 (fun k ->
            ( 3.0 *. float_of_int (1 + k + (p * 5)),
              p,
              { K.value = Printf.sprintf "c%d.%d" p k; dests = subset p k } )))
      procs
  in
  let run =
    K.run_on
      ~backend:(Service.sim Services.skeen ~delta:1.0)
      (K.make_config ~procs) ~workload ~failures:(split procs) ~until:200.0
      ~seed:5
  in
  Alcotest.(check string)
    "trace" "725a13566ae7afbc79a48e029b8e051d"
    (hex (Trace_io.to_to_string run.K.trace));
  Alcotest.(check (list int))
    "final states, packets sent/dropped, events" [ 4; 147; 9; 190 ]
    [
      Proc.Map.cardinal run.K.final_nodes;
      run.K.packets_sent;
      run.K.packets_dropped;
      run.K.events_processed;
    ]

(* The fixed sequencer through the same partition, on the default
   (non-FIFO) simulated links the digest was recorded with. *)
let test_sequencer () =
  let module Q = Gcs_baseline.Sequencer in
  let procs = Proc.all ~n:4 in
  let run =
    Q.run_on
      ~backend:
        (Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta:1.0))
      (Q.make_config ~procs)
      ~workload:(Harness.default_workload ~procs ~count:5 ())
      ~failures:(split procs) ~until:300.0 ~seed:3
  in
  Alcotest.(check string)
    "trace" "99d00a9a8d89d38f9a8545f31ffe3f0d"
    (hex (Trace_io.to_to_string run.Q.trace));
  Alcotest.(check (list int))
    "packets sent/dropped" [ 92; 8 ]
    [ run.Q.packets_sent; run.Q.packets_dropped ]

(* The conformance suite's sim profiles, per case (bcasts, deliveries,
   events processed), as the per-service suites produced them before
   the fold: VStoTO plain and batched, Skeen on its mixed-addressing
   workload (full group, pairs from the origin, triples from the index).
   The batched row was re-recorded when token visits began closing
   batches (the same bcasts and deliveries, in fewer events), and again
   when the token began launching at start under a batch window too (the
   same counts; the first rotation runs at once, so more events). *)
let test_suite () =
  let outcomes profile =
    List.map
      (fun o ->
        Printf.sprintf "%s %d %d %d" o.Harness.scenario.Scenario.name
          o.Harness.bcasts o.Harness.deliveries o.Harness.events_processed)
      (Suite.run_all profile ~seed:7)
  in
  let sim = Suite.sim_profile in
  Alcotest.(check (list string))
    "vstoto"
    [
      "clean 12 36 323";
      "partition-heal 12 36 483";
      "crash-recover 12 36 450";
      "ugly-link 12 36 462";
      "slow-processor 12 36 454";
    ]
    (outcomes (sim Services.vstoto));
  Alcotest.(check (list string))
    "vstoto batched"
    [
      "clean 12 36 323";
      "partition-heal 12 36 485";
      "crash-recover 12 36 452";
      "ugly-link 12 36 462";
      "slow-processor 12 36 433";
    ]
    (outcomes (sim ~batch_window:2.0 Services.vstoto));
  Alcotest.(check (list string))
    "skeen"
    [
      "clean 16 49 163";
      "partition-heal 16 18 143";
      "crash-recover 16 22 195";
      "ugly-link 16 49 211";
      "slow-processor 16 49 241";
    ]
    (outcomes (sim Services.skeen))

(* Short fuzz campaigns: stats (executions, corpus, coverage features,
   failure and shrink sizes), the corpus bytes and the exact coverage
   feature strings. *)
let fuzz_config = To_service.make_config (vs_config 4)

let check_fuzz label ~stats ~corpus ~features outcome =
  Alcotest.(check string) (label ^ " stats") stats (Fuzz.stats_to_json outcome);
  Alcotest.(check string)
    (label ^ " corpus") corpus
    (hex (String.concat "\n" (Fuzz.corpus_strings outcome)));
  Alcotest.(check string)
    (label ^ " features") features
    (hex (String.concat "\n" (Coverage.to_list outcome.Fuzz.coverage)))

let test_fuzz_services () =
  check_fuzz "vstoto"
    ~stats:
      {|{"execs":60,"rounds":7,"corpus":49,"features":1345,"failures":0,"failure":null}|}
    ~corpus:"f4df6e189e531defa51898ae757e1c03"
    ~features:"4ac0faaab87a80d8099c53d62f749049"
    (Fuzz.run ~jobs:1 ~config:fuzz_config ~seed:11 ~execs:60 ());
  check_fuzz "skeen"
    ~stats:
      {|{"execs":60,"rounds":7,"corpus":26,"features":225,"failures":0,"failure":null}|}
    ~corpus:"c7b44060240ed1e4f16836b4504ccace"
    ~features:"9a2b19bda55605cb7930a48207534eb4"
    (Fuzz.run ~service:Services.skeen ~jobs:1 ~config:fuzz_config ~seed:11
       ~execs:60 ())

let pair name = Option.get (Differential.of_name name)

let test_fuzz_pairs () =
  check_fuzz "vstoto-skeen"
    ~stats:
      {|{"execs":40,"rounds":5,"corpus":33,"features":1928,"failures":0,"failure":null}|}
    ~corpus:"49bbaa9e26215a6a9fa8c5161a63780c"
    ~features:"b29e6a81e9ad09603db6e34ca287f808"
    (Fuzz.run ~pair:(pair "vstoto-skeen") ~jobs:1 ~config:fuzz_config
       ~seed:11 ~execs:40 ());
  check_fuzz "vstoto-sequencer"
    ~stats:
      {|{"execs":40,"rounds":5,"corpus":26,"features":597,"failures":0,"failure":null}|}
    ~corpus:"a3aff8b0f659637dc44f381541edc4f8"
    ~features:"d0833a836c339b0354fb9e3b0232b74e"
    (Fuzz.run ~pair:(pair "vstoto-sequencer") ~jobs:1 ~config:fuzz_config
       ~seed:11 ~execs:40 ())

let test_fuzz_mutants () =
  let mutant name = Option.get (Mutant.find name) in
  check_fuzz "dup-delivery"
    ~stats:
      {|{"execs":12,"rounds":1,"corpus":9,"features":455,"failures":1,"failure":{"check":"to-conformance","events":12,"shrunk_events":5,"shrink_execs":23}}|}
    ~corpus:"ba752bed630d00bfa27b738fd17c06ec"
    ~features:"8c1f48d04d5616acd4e3f9a81c916cc9"
    (Fuzz.run ~mutant:(mutant "dup-delivery") ~jobs:1 ~config:fuzz_config
       ~seed:7 ~execs:200 ~shrink_budget:100 ());
  check_fuzz "skeen-commit-skew"
    ~stats:
      {|{"execs":20,"rounds":2,"corpus":12,"features":218,"failures":2,"failure":{"check":"skeen-node-invariant","events":17,"shrunk_events":4,"shrink_execs":26}}|}
    ~corpus:"443e0134acf24748cb181b16336cfe11"
    ~features:"16a38088db7acb71e7e67c259cb97783"
    (Fuzz.run ~mutant:(mutant "skeen-commit-skew") ~jobs:1 ~config:fuzz_config
       ~seed:7 ~execs:200 ~shrink_budget:100 ())

let () =
  Alcotest.run "golden"
    [
      ( "sim",
        [
          Alcotest.test_case "vstoto harness run" `Quick test_vstoto;
          Alcotest.test_case "skeen mixed addressing" `Quick test_skeen;
          Alcotest.test_case "sequencer" `Quick test_sequencer;
          Alcotest.test_case "conformance suite" `Quick test_suite;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "services" `Quick test_fuzz_services;
          Alcotest.test_case "differential pairs" `Quick test_fuzz_pairs;
          Alcotest.test_case "planted bugs" `Quick test_fuzz_mutants;
        ] );
    ]
