(* The fuzzer's own regression suite: input round-trips, determinism
   across job counts, shrinker soundness, and the planted-bug gauntlet
   (every service's mutant in [Mutant.all] must be found within a
   bounded budget and shrunk to a small reproducer blaming an expected
   check). *)

open Gcs_core
open Gcs_impl
open Gcs_nemesis
open Gcs_fuzz
module Service = Gcs_conformance.Service
module Services = Gcs_conformance.Services

let n = 4
let procs = Proc.all ~n
let vs_config = { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }
let config = To_service.make_config vs_config

(* ------------------------- input round-trip ------------------------- *)

let roundtrip name input =
  let text = Input.to_string input in
  match Input.of_string text with
  | Error e -> Alcotest.failf "%s: parse failed: %s" name e
  | Ok back ->
      Alcotest.(check string)
        (name ^ " round-trips") text (Input.to_string back)

let test_roundtrip_basic () =
  roundtrip "basic"
    (Input.normalize
       {
         Input.seed = 42;
         steps =
           [
             { Scenario.at = 20.0; op = Scenario.Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
             { Scenario.at = 60.0; op = Scenario.Heal };
             { Scenario.at = 30.0; op = Scenario.Crash 2 };
             { Scenario.at = 45.0; op = Scenario.Recover 2 };
             { Scenario.at = 50.0; op = Scenario.Degrade (0, 3, Fstatus.Ugly) };
             { Scenario.at = 52.0; op = Scenario.Slow 1 };
             { Scenario.at = 58.0; op = Scenario.Wake 1 };
           ];
         workload = [ (25.0, 0, "hello"); (26.0, 1, "world") ];
       })

(* Values with every character the escape layer must protect: spaces,
   newlines, percent signs, and the separator characters of the format
   itself. *)
let test_roundtrip_escapes () =
  roundtrip "escape-heavy"
    (Input.normalize
       {
         Input.seed = 0;
         steps = [];
         workload =
           [
             (10.0, 0, "with space");
             (11.0, 1, "line\nbreak");
             (12.0, 2, "100%sure");
             (13.0, 3, "a,b/c d");
             (14.0, 0, "");
           ];
       })

let test_roundtrip_empty () =
  roundtrip "empty" (Input.normalize { Input.seed = 7; steps = []; workload = [] })

let test_parse_comments () =
  match Input.of_string "# comment\n\nseed 3\nload 10.000000 1 v\n" with
  | Error e -> Alcotest.failf "comment parse failed: %s" e
  | Ok t ->
      Alcotest.(check int) "seed" 3 t.Input.seed;
      Alcotest.(check int) "events" 1 (Input.events t)

let test_parse_garbage () =
  (match Input.of_string "sneed 3\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown directive");
  match Input.of_string "step notatime heal\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unparseable time"

(* --------------------------- determinism ---------------------------- *)

(* Same seed, different job counts: the corpus, coverage cardinality and
   summary stats must be byte-identical. This is the property the
   `--jobs` flag advertises; it holds because candidates are generated
   sequentially and results folded in input order. *)
let test_determinism_across_jobs () =
  let run jobs = Fuzz.run ~jobs ~config ~seed:11 ~execs:120 () in
  let a = run 1 and b = run 4 in
  Alcotest.(check string)
    "stats equal" (Fuzz.stats_to_json a) (Fuzz.stats_to_json b);
  Alcotest.(check (list string))
    "corpus equal" (Fuzz.corpus_strings a) (Fuzz.corpus_strings b)

let test_determinism_across_runs () =
  let run () = Fuzz.run ~jobs:2 ~config ~seed:23 ~execs:80 () in
  Alcotest.(check string)
    "repeat run equal"
    (Fuzz.stats_to_json (run ()))
    (Fuzz.stats_to_json (run ()))

(* The run statistics and the progress snapshot are JSON that
   [Gcs_stdx.Jsonx] parses back to the same figures. *)
let test_json_parses_back () =
  let dup = Option.get (Mutant.find "dup-delivery") in
  let outcome =
    Fuzz.run ~mutant:dup ~jobs:1 ~config ~seed:7 ~execs:200 ~shrink_budget:100 ()
  in
  let parse label json =
    match Gcs_stdx.Jsonx.of_string json with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s does not parse (%s): %s" label e json
  in
  let num v key = Option.bind (Gcs_stdx.Jsonx.member key v) Gcs_stdx.Jsonx.to_float in
  let stats = parse "stats" (Fuzz.stats_to_json outcome) in
  Alcotest.(check (option (float 0.0)))
    "stats execs"
    (Some (float_of_int outcome.Fuzz.stats.Fuzz.execs))
    (num stats "execs");
  Alcotest.(check (option string))
    "failure check" (Some "to-conformance")
    (Option.bind
       (Option.bind (Gcs_stdx.Jsonx.member "failure" stats)
          (Gcs_stdx.Jsonx.member "check"))
       Gcs_stdx.Jsonx.to_string);
  let snap = parse "snapshot" (Fuzz.snapshot_to_json outcome.Fuzz.stats ~wall_s:1.25) in
  Alcotest.(check (option (float 0.0)))
    "snapshot features"
    (Some (float_of_int outcome.Fuzz.stats.Fuzz.features))
    (num snap "features");
  Alcotest.(check (option (float 0.0))) "snapshot wall" (Some 1.25) (num snap "wall_s")

(* A clean build must not self-accuse: with no mutant planted, a modest
   budget of fuzzing finds no failure. *)
let test_no_false_positives () =
  let outcome = Fuzz.run ~jobs:2 ~config ~seed:5 ~execs:150 () in
  match outcome.Fuzz.failure with
  | None -> ()
  | Some (input, f) ->
      Alcotest.failf "clean run failed %s on:\n%s" f.Runner.check
        (Input.to_string input)

(* The same clean-build property with batching on: schedule fuzzing over
   the batched gpsnd path (Msg.Batch formation, element-wise delivery,
   the staging flush timer) must not trip any oracle either. *)
let test_no_false_positives_batched () =
  let batched_config = To_service.make_config ~batch_window:2.0 vs_config in
  let outcome = Fuzz.run ~jobs:2 ~config:batched_config ~seed:5 ~execs:150 () in
  match outcome.Fuzz.failure with
  | None -> ()
  | Some (input, f) ->
      Alcotest.failf "batched clean run failed %s on:\n%s" f.Runner.check
        (Input.to_string input)

(* The Skeen service on the same inputs: a clean build must pass its
   oracle chain (group order, node invariants, fault-free completeness)
   across a modest fuzz budget. *)
let test_no_false_positives_skeen () =
  let outcome =
    Fuzz.run ~service:Services.skeen ~jobs:2 ~config ~seed:5 ~execs:150 ()
  in
  match outcome.Fuzz.failure with
  | None -> ()
  | Some (input, f) ->
      Alcotest.failf "clean skeen run failed %s on:\n%s" f.Runner.check
        (Input.to_string input)

(* The fixed sequencer's chain (TO conformance, fault-free completeness)
   under the same budget. *)
let test_no_false_positives_sequencer () =
  let outcome =
    Fuzz.run ~service:Services.sequencer ~jobs:2 ~config ~seed:5 ~execs:150 ()
  in
  match outcome.Fuzz.failure with
  | None -> ()
  | Some (input, f) ->
      Alcotest.failf "clean sequencer run failed %s on:\n%s" f.Runner.check
        (Input.to_string input)

(* ------------------------- planted bugs ----------------------------- *)

let find_and_shrink mutant =
  Fuzz.run ~mutant ~jobs:2 ~config ~seed:7 ~execs:800 ~shrink_budget:400 ()

let test_mutant m () =
  let name = Service.mutant_name m and expected = Service.mutant_checks m in
  let outcome = find_and_shrink m in
  match (outcome.Fuzz.failure, outcome.Fuzz.shrunk) with
  | None, _ -> Alcotest.failf "mutant %s not found within budget" name
  | Some _, None -> Alcotest.failf "mutant %s found but not shrunk" name
  | Some (original, f), Some s ->
      if not (List.mem f.Runner.check expected) then
        Alcotest.failf "mutant %s blamed %s (expected one of: %s)" name
          f.Runner.check
          (String.concat ", " expected);
      (* The shrinker must not grow the input, must stay under the
         25-event reproducer bound, and must preserve the check being
         blamed. *)
      let before = Input.events original
      and after = Input.events s.Shrink.input in
      if after > before then
        Alcotest.failf "mutant %s: shrink grew %d -> %d events" name before
          after;
      if after > 25 then
        Alcotest.failf "mutant %s: shrunk repro still has %d events" name after;
      Alcotest.(check string)
        "shrunk failure check" f.Runner.check s.Shrink.failure.Runner.check

(* A planted bug instruments one service's handlers. Pairing it with
   another service must be refused up front: running the named service
   clean would report "no failures found" for a mutant never planted. *)
let test_wrong_service_refused () =
  let refused label f =
    match f () with
    | _ -> Alcotest.failf "%s: a mutant of another service was accepted" label
    | exception Invalid_argument _ -> ()
  in
  let dup = Option.get (Mutant.find "dup-delivery") in
  refused "skeen + dup-delivery" (fun () ->
      Fuzz.run ~service:Services.skeen ~mutant:dup ~jobs:1 ~config ~seed:7
        ~execs:20 ());
  let skew = Option.get (Mutant.find "skeen-commit-skew") in
  refused "vstoto + skeen-commit-skew" (fun () ->
      Fuzz.run ~service:Services.vstoto ~mutant:skew ~jobs:1 ~config ~seed:7
        ~execs:20 ());
  let pair name = Option.get (Differential.of_name name) in
  refused "skeen-bus + dup-delivery" (fun () ->
      Fuzz.run ~pair:(pair "skeen-bus") ~mutant:dup ~jobs:1 ~config ~seed:7
        ~execs:20 ());
  (* The replay path ([gcs fuzz --diff P --replay F]) refuses as soon as
     the pair is applied. *)
  refused "skeen-bus replay + dup-delivery" (fun () ->
      Differential.execute ~mutant:dup ~config (pair "skeen-bus"));
  (* A divergence-only mutant names its pair; a tamper has no service to
     check, so the pair itself must match. *)
  refused "sim-bus + skeen-swap-inputs" (fun () ->
      Diff_mutant.check
        (Option.get (Diff_mutant.find "skeen-swap-inputs"))
        (pair "sim-bus"))

(* ----------------------- shrinker soundness ------------------------- *)

(* The shrunk reproducer must actually fail when re-executed from its
   serialized form — i.e. shrinking composed with round-tripping is
   sound, which is exactly what `gcs fuzz --replay repro.sched` does. *)
let test_shrunk_repro_fails () =
  let m = List.hd Mutant.all in
  let outcome = find_and_shrink m in
  match outcome.Fuzz.shrunk with
  | None -> Alcotest.fail "no shrunk reproducer"
  | Some s -> (
      let text = Input.to_string s.Shrink.input in
      match Input.of_string text with
      | Error e -> Alcotest.failf "repro does not parse: %s" e
      | Ok input -> (
          match
            Runner.oracle ~mutant:m ~config
              ~check:s.Shrink.failure.Runner.check input
          with
          | Some _ -> ()
          | None ->
              Alcotest.failf "shrunk repro no longer fails:\n%s" text))

(* Removing any further single event from the minimized reproducer must
   lose the failure (1-minimality modulo the oracle) OR keep it failing
   the same check — never flip to a different check. In practice the
   shrinker runs to a fixpoint of its deletion pass, so a further
   single-event deletion that still fails would contradict termination;
   we assert the weaker, stable property that no deletion changes the
   blamed check. *)
let test_shrunk_repro_stable () =
  let m = List.hd Mutant.all in
  let outcome = find_and_shrink m in
  match outcome.Fuzz.shrunk with
  | None -> Alcotest.fail "no shrunk reproducer"
  | Some s ->
      let input = s.Shrink.input in
      let check = s.Shrink.failure.Runner.check in
      let drop_step i =
        Input.normalize
          {
            input with
            Input.steps = List.filteri (fun k _ -> k <> i) input.Input.steps;
          }
      in
      let drop_load i =
        Input.normalize
          {
            input with
            Input.workload =
              List.filteri (fun k _ -> k <> i) input.Input.workload;
          }
      in
      let candidates =
        List.init (List.length input.Input.steps) drop_step
        @ List.init (List.length input.Input.workload) drop_load
      in
      List.iter
        (fun candidate ->
          match Runner.oracle ~mutant:m ~config ~check candidate with
          | Some _ ->
              (* Still fails the same check after a deletion the shrinker
                 should have taken: the deletion pass did not reach its
                 fixpoint. *)
              Alcotest.failf "shrunk repro not 1-minimal for %s" check
          | None -> ())
        candidates

(* --------------------------- registration --------------------------- *)

let mutant_cases =
  List.map
    (fun m ->
      Alcotest.test_case
        (Service.mutant_name m ^ " found and shrunk")
        `Slow (test_mutant m))
    Mutant.all
  @ [
      Alcotest.test_case "wrong-service mutant refused" `Quick
        test_wrong_service_refused;
    ]

let () =
  Alcotest.run "fuzz"
    [
      ( "input",
        [
          Alcotest.test_case "round-trip basic" `Quick test_roundtrip_basic;
          Alcotest.test_case "round-trip escapes" `Quick test_roundtrip_escapes;
          Alcotest.test_case "round-trip empty" `Quick test_roundtrip_empty;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments;
          Alcotest.test_case "garbage rejected" `Quick test_parse_garbage;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Quick
            test_determinism_across_jobs;
          Alcotest.test_case "repeat runs equal" `Quick
            test_determinism_across_runs;
          Alcotest.test_case "stats and snapshot JSON parse back" `Quick
            test_json_parses_back;
          Alcotest.test_case "no false positives" `Quick
            test_no_false_positives;
          Alcotest.test_case "no false positives (batched)" `Quick
            test_no_false_positives_batched;
          Alcotest.test_case "no false positives (skeen)" `Quick
            test_no_false_positives_skeen;
          Alcotest.test_case "no false positives (sequencer)" `Quick
            test_no_false_positives_sequencer;
        ] );
      ("planted", mutant_cases);
      ( "shrink",
        [
          Alcotest.test_case "shrunk repro still fails" `Slow
            test_shrunk_repro_fails;
          Alcotest.test_case "shrunk repro 1-minimal" `Slow
            test_shrunk_repro_stable;
        ] );
    ]
