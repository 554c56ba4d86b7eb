(* Tests for the fixed-size domain pool: result ordering, determinism of
   the parallel nemesis sweep against the sequential one, and exception
   propagation out of worker domains. *)

open Gcs_core
open Gcs_impl

let test_map_matches_list_map () =
  let f x = (x * 37) mod 101 in
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i) in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            (List.map f xs)
            (Gcs_stdx.Pool.map ~jobs f xs))
        [ 1; 2; 3; 4; 9 ])
    [ 0; 1; 2; 7; 64; 257 ]

let test_map_preserves_order_under_skew () =
  (* Give early items much more work than late ones so domains finish out
     of submission order; results must still come back in input order. *)
  let xs = List.init 32 (fun i -> i) in
  let f i =
    let spins = (32 - i) * 10_000 in
    let acc = ref 0 in
    for k = 1 to spins do
      acc := (!acc + k) mod 7919
    done;
    (i, !acc)
  in
  Alcotest.(check (list (pair int int)))
    "skewed work, ordered results" (List.map f xs)
    (Gcs_stdx.Pool.map ~jobs:4 f xs)

let test_default_jobs_env () =
  (* default_jobs reads GCS_JOBS; bogus or missing values mean 1. The
     test suite may itself run under GCS_JOBS, so only check coherence. *)
  let d = Gcs_stdx.Pool.default_jobs () in
  Alcotest.(check bool) "default at least 1" true (d >= 1);
  match Sys.getenv_opt "GCS_JOBS" with
  | Some s when int_of_string_opt (String.trim s) = Some d -> ()
  | Some _ | None -> Alcotest.(check bool) "fallback is 1 or env" true (d >= 1)

exception Boom of int

let test_exception_propagates () =
  (* A crashing worker must not hang the pool, and the propagated
     exception is deterministically the lowest failing index. *)
  let xs = List.init 40 (fun i -> i) in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d raises lowest index" jobs)
        (Boom 17)
        (fun () ->
          ignore
            (Gcs_stdx.Pool.map ~jobs
               (fun i -> if i >= 17 && i mod 2 = 1 then raise (Boom i) else i)
               xs)))
    [ 1; 2; 4 ]

let test_concurrent_failures_deterministic_winner () =
  (* Two workers raising in the same batch, on purpose in the same
     scheduling window: indices are claimed in ascending order via
     fetch_and_add, so the claimed set is a contiguous prefix and every
     claimed item completes — the propagated exception is the lowest
     raising index, whichever domain crosses the line first in wall
     time. Repeat to give an unlucky interleaving every chance. *)
  let xs = List.init 16 (fun i -> i) in
  for round = 1 to 50 do
    List.iter
      (fun jobs ->
        Alcotest.check_raises
          (Printf.sprintf "round %d jobs=%d: lowest of two raisers" round
             jobs)
          (Boom 6)
          (fun () ->
            ignore
              (Gcs_stdx.Pool.map ~jobs
                 (fun i ->
                   if i = 6 || i = 7 then raise (Boom i)
                   else begin
                     (* skew: later items finish first, so the higher
                        raiser tends to fire before the lower one *)
                     let acc = ref 0 in
                     for k = 1 to (16 - i) * 500 do
                       acc := (!acc + k) mod 7919
                     done;
                     ignore !acc;
                     i
                   end)
                 xs)))
      [ 2; 4 ]
  done

let test_iter_runs_everything () =
  let hits = Array.init 50 (fun _ -> Atomic.make 0) in
  Gcs_stdx.Pool.iter ~jobs:4 (fun i -> Atomic.incr hits.(i))
    (List.init 50 (fun i -> i));
  Alcotest.(check (list int)) "every item visited once"
    (List.init 50 (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get hits))

(* ------------------------------------------------------------------ *)
(* Determinism of the parallel nemesis sweep: the whole point of the
   pool is that a parallel soak is byte-identical to the sequential one,
   so a failing seed reproduces with `gcs nemesis --seed N`. *)

let nemesis_batch ~jobs seeds =
  let n = 5 in
  let procs = Proc.all ~n in
  let vs_config =
    { Vs_node.procs; p0 = procs; pi = 8.0; mu = 10.0; delta = 1.0 }
  in
  let config = To_service.make_config vs_config in
  Gcs_stdx.Pool.map ~jobs
    (fun seed ->
      Gcs_nemesis.Harness.run ~config ~seed
        (Gcs_nemesis.Gen.scenario ~procs ~events:8 ~seed ()))
    seeds

let nemesis_outcomes ~jobs seeds =
  List.map Gcs_nemesis.Harness.to_json (nemesis_batch ~jobs seeds)

let test_nemesis_batch_deterministic () =
  let seeds = List.init 8 (fun i -> 301 + (i * 13)) in
  let sequential = nemesis_outcomes ~jobs:1 seeds in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d byte-identical to sequential" jobs)
        sequential
        (nemesis_outcomes ~jobs seeds))
    [ 2; 4 ]

let test_nemesis_metrics_deterministic () =
  (* The metrics registries are per-run values, never globals, so the
     rendered snapshots — including the latency histogram floats — must
     be byte-identical between a sequential and a 4-domain batch. *)
  let seeds = List.init 6 (fun i -> 511 + (i * 17)) in
  let snapshots jobs =
    List.map
      (fun o -> Gcs_stdx.Metrics.to_json o.Gcs_nemesis.Harness.metrics)
      (nemesis_batch ~jobs seeds)
  in
  let sequential = snapshots 1 in
  Alcotest.(check (list string)) "jobs=4 metrics JSON byte-identical"
    sequential (snapshots 4)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map = List.map at any job count" `Quick
            test_map_matches_list_map;
          Alcotest.test_case "ordered results under skewed work" `Quick
            test_map_preserves_order_under_skew;
          Alcotest.test_case "default_jobs env" `Quick test_default_jobs_env;
          Alcotest.test_case "worker exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "concurrent failures: deterministic winner"
            `Quick test_concurrent_failures_deterministic_winner;
          Alcotest.test_case "iter visits every item" `Quick
            test_iter_runs_everything;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel nemesis sweep = sequential" `Slow
            test_nemesis_batch_deterministic;
          Alcotest.test_case "metrics snapshots = sequential" `Slow
            test_nemesis_metrics_deterministic;
        ] );
    ]
