(* The differential fuzzing mode end to end: clean runs on every pair
   find nothing (zero false positives), including the sim-vs-bus pair
   every registered service gets for free, every planted divergence-only
   mutant is found and shrunk within CI budgets, and the fuzzy-hashed
   state-snapshot coverage is byte-deterministic — across job counts and
   across same-seed repeats, for every service and for the differential
   mode (a qcheck property over random master seeds). *)

open Gcs_core
open Gcs_impl
open Gcs_fuzz
module Services = Gcs_conformance.Services

let n = 4
let procs = Proc.all ~n
let vs_config = { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }
let config = To_service.make_config vs_config

(* ------------------------- clean pair smokes ------------------------- *)

(* Budgets follow the candidate's backend: a bus execution costs real
   wall-clock time, a simulated pair is practically free. *)
let clean_budget pair =
  match pair.Differential.backend with
  | Differential.Bus -> 16
  | Differential.Sim -> 120

let test_clean_pair ~execs pair () =
  let outcome = Fuzz.run ~pair ~jobs:2 ~config ~seed:3 ~execs ()
  in
  match outcome.Fuzz.failure with
  | None -> ()
  | Some (input, f) ->
      Alcotest.failf "clean %s run failed %s:\n%s\n%s"
        pair.Differential.name f.Runner.check f.Runner.detail
        (Input.to_string input)

(* ----------------------- seeded sim-vs-bus sweep ---------------------- *)

(* The same seeded fault-free workload through the simulator and the bus
   must yield identical per-node delivered orders. Each seed draws 12
   submissions with random origins over 3 nodes; the verdict covers
   completeness on both sides ("diff-incomplete"), and the reference
   count pins it to all 36 deliveries, so a pass cannot come from two
   equally empty runs. The default run is CI-sized; set GCS_SOAK_ITERS
   to scale the sweep up. *)
let soak_iters =
  match Sys.getenv_opt "GCS_SOAK_ITERS" with
  | Some s -> ( match int_of_string_opt s with Some k when k > 0 -> k | _ -> 1)
  | None -> 1

let sweep_pairs = 8 * soak_iters

let run_seeded_pairs pair_name =
  let procs = Proc.all ~n:3 in
  let config =
    To_service.make_config { vs_config with Vs_node.procs; p0 = procs }
  in
  let execute =
    Differential.execute ~config (Option.get (Differential.of_name pair_name))
  in
  for i = 0 to sweep_pairs - 1 do
    let seed = 1000 + (i * 131) in
    let prng = Gcs_stdx.Prng.create seed in
    let workload =
      List.init 12 (fun k ->
          (0.0, Gcs_stdx.Prng.pick_exn prng procs, Printf.sprintf "m%d" k))
    in
    let input = Input.normalize { Input.seed; steps = []; workload } in
    let obs = execute input in
    (match obs.Runner.verdict with
    | None -> ()
    | Some f ->
        Alcotest.failf "sim-bus FAILING SEED %d: %s %s" seed f.Runner.check
          f.Runner.detail);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: sim delivered everything" seed)
      36 obs.Runner.deliveries
  done

let test_seeded_pairs () = run_seeded_pairs "sim-bus"

(* The same sweep with submission batching on: each origin's first value
   leaves at once and the first token visit closes the batch of the rest,
   and sim and bus must still agree on every per-node delivered order. *)
let test_seeded_pairs_batched () = run_seeded_pairs "sim-bus-batched"

(* The batched pair must stay batched: were every value to leave alone,
   it would be [sim-bus] under another name. Its round-robin seed
   schedule forms a multi-value [Msg.Batch] on both clocks. *)
let test_batched_pair_batches () =
  let procs = Proc.all ~n:3 in
  let pair = Option.get (Differential.of_name "sim-bus-batched") in
  let input =
    List.hd (Differential.seed_inputs ~procs ~prng:(Gcs_stdx.Prng.create 1))
  in
  let config, input, bus =
    Differential.anchor pair
      ~config:(To_service.make_config { vs_config with Vs_node.procs; p0 = procs })
      input
  in
  let service : _ Gcs_conformance.Service.s = (module Services.Vstoto) in
  let workload =
    List.map
      (fun (t, p, v) -> (t, p, Services.Vstoto.lift config p v))
      input.Input.workload
  in
  let largest_batch label ~until backend =
    let metrics = Gcs_stdx.Metrics.create () in
    let observe, stop =
      Gcs_conformance.Service.drained service config ~workload
        ~after:Float.neg_infinity
    in
    let result =
      Gcs_conformance.Service.run service ~metrics ?observe ~stop ~backend
        config ~workload ~failures:[] ~until ~seed:input.Input.seed
    in
    Alcotest.(check int)
      (label ^ " delivered everything")
      (List.length procs * List.length workload)
      (snd
         (Gcs_conformance.Service.tally
            (Services.Vstoto.client_trace result.Gcs_transport.Iface.trace)));
    match Gcs_stdx.Metrics.histogram metrics "to.batch_size" with
    | Some (_, _, _, largest) -> largest
    | None -> 0.0
  in
  let sim =
    largest_batch "sim" ~until:400.0
      (Gcs_conformance.Service.sim Services.vstoto
         ~delta:config.To_service.vs.Vs_node.delta)
  in
  let bus = largest_batch "bus" ~until:30.0 (Option.get bus) in
  Alcotest.(check bool)
    (Printf.sprintf "multi-value batches on both sides (sim %g, bus %g)" sim bus)
    true
    (sim > 1.0 && bus > 1.0)

(* --------------------------- planted bugs ---------------------------- *)

let test_diff_mutant (m : Diff_mutant.t) () =
  let outcome =
    Fuzz.run ?mutant:m.Diff_mutant.mutant ?tamper:m.Diff_mutant.tamper
      ~withholds_outputs:m.Diff_mutant.withholds_outputs
      ~pair:m.Diff_mutant.pair ~jobs:2 ~config
      ~seed:7 ~execs:200 ~shrink_budget:300 ()
  in
  match (outcome.Fuzz.failure, outcome.Fuzz.shrunk) with
  | None, _ ->
      Alcotest.failf "diff mutant %s not found within budget"
        m.Diff_mutant.name
  | Some _, None ->
      Alcotest.failf "diff mutant %s found but not shrunk" m.Diff_mutant.name
  | Some (original, f), Some s ->
      Alcotest.(check string)
        "blamed check is divergence" "divergence" f.Runner.check;
      let before = Input.events original
      and after = Input.events s.Shrink.input in
      if after > before then
        Alcotest.failf "diff mutant %s: shrink grew %d -> %d events"
          m.Diff_mutant.name before after;
      if after > 25 then
        Alcotest.failf "diff mutant %s: shrunk repro still has %d events"
          m.Diff_mutant.name after;
      Alcotest.(check string)
        "shrunk failure check" f.Runner.check s.Shrink.failure.Runner.check

(* ------------------- snapshot-hash determinism ----------------------- *)

(* The locality-sensitive state-snapshot hashes enter the coverage map
   as "sh:*" / "shx:*" features. They steer the power schedule, so any
   nondeterminism in them would silently fork fuzzing campaigns between
   machines or job counts. The property: for a random master seed, the
   snapshot-hash features of a whole fuzz run are byte-identical across
   --jobs 1 vs --jobs 4 and across same-seed repeats. *)
let snapshot_hashes outcome =
  List.filter
    (fun f ->
      (String.length f >= 3 && String.sub f 0 3 = "sh:")
      || (String.length f >= 4 && String.sub f 0 4 = "shx:"))
    (Coverage.to_list outcome.Fuzz.coverage)

let run_mode mode ~jobs ~seed =
  match mode with
  | `Service s -> Fuzz.run ~service:s ~jobs ~config ~seed ~execs:40 ()
  | `Diff ->
      Fuzz.run
        ~pair:(Option.get (Differential.of_name "vstoto-skeen"))
        ~jobs ~config ~seed ~execs:40 ()

let mode_name = function
  | `Service s -> Gcs_conformance.Service.name s
  | `Diff -> "diff:vstoto-skeen"

let prop_snapshot_hash_determinism mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "snapshot hashes deterministic (%s)" (mode_name mode))
    ~count:4
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let a = run_mode mode ~jobs:1 ~seed in
      let b = run_mode mode ~jobs:4 ~seed in
      let c = run_mode mode ~jobs:4 ~seed in
      let ha = snapshot_hashes a
      and hb = snapshot_hashes b
      and hc = snapshot_hashes c in
      if ha = [] then
        QCheck.Test.fail_reportf "%s: run produced no snapshot hashes"
          (mode_name mode);
      if ha <> hb then
        QCheck.Test.fail_reportf "%s seed %d: jobs 1 vs 4 hash sets differ"
          (mode_name mode) seed;
      if hb <> hc then
        QCheck.Test.fail_reportf "%s seed %d: same-seed repeats differ"
          (mode_name mode) seed;
      Fuzz.stats_to_json a = Fuzz.stats_to_json b
      && Fuzz.corpus_strings a = Fuzz.corpus_strings b)

(* --------------------------- registration ---------------------------- *)

let clean_cases =
  List.map
    (fun pair ->
      Alcotest.test_case
        (Printf.sprintf "clean %s finds nothing" pair.Differential.name)
        `Slow
        (test_clean_pair ~execs:(clean_budget pair) pair))
    Differential.all

(* Openness: every registered service gets a sim-vs-bus pair from its
   registration alone — the sequencer too, which no named pair uses. *)
let open_cases =
  List.map
    (fun service ->
      let pair = Differential.sim_bus service in
      Alcotest.test_case
        (Printf.sprintf "%s clean from its registration" pair.Differential.name)
        `Slow
        (test_clean_pair ~execs:6 pair))
    Services.all

let mutant_cases =
  List.map
    (fun m ->
      Alcotest.test_case
        (m.Diff_mutant.name ^ " found and shrunk")
        `Slow (test_diff_mutant m))
    Diff_mutant.all

let () =
  Alcotest.run "diff-fuzz"
    [
      ("clean", clean_cases);
      ( "no-fault workloads",
        [
          Alcotest.test_case
            (Printf.sprintf "%d seeded pairs" sweep_pairs)
            `Slow test_seeded_pairs;
          Alcotest.test_case
            (Printf.sprintf "%d seeded pairs (batched)" sweep_pairs)
            `Slow test_seeded_pairs_batched;
          Alcotest.test_case "batched pair forms batches" `Quick
            test_batched_pair_batches;
        ] );
      ("open", open_cases);
      ("planted", mutant_cases);
      ( "state-hash determinism",
        List.map
            (fun s ->
              QCheck_alcotest.to_alcotest
                (prop_snapshot_hash_determinism (`Service s)))
            Services.all
        @ [ QCheck_alcotest.to_alcotest (prop_snapshot_hash_determinism `Diff) ]
      );
    ]
