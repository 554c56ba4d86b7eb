(* Tests for the baselines — the fixed sequencer, and Skeen as the
   all-destinations protocol — including the availability contrast with
   the partitionable VStoTO stack. *)

open Gcs_core
open Gcs_impl
open Gcs_baseline

let procs = Proc.all ~n:4
let delta = 1.0
let config = Sequencer.make_config ~procs
let sim = Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta)

let workload ~senders ~from_time ~spacing ~count =
  List.concat_map
    (fun (i, p) ->
      List.init count (fun k ->
          ( from_time +. (float_of_int k *. spacing) +. (0.17 *. float_of_int i),
            p,
            Printf.sprintf "s%d.%d" p k )))
    (List.mapi (fun i p -> (i, p)) senders)

let test_steady_state () =
  List.iter
    (fun seed ->
      let run =
        Sequencer.run_on ~backend:sim config
          ~workload:(workload ~senders:procs ~from_time:5.0 ~spacing:5.0 ~count:10)
          ~failures:[] ~until:200.0 ~seed
      in
      (match Sequencer.to_conforms config run with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "sequencer trace rejected: %s"
            (Format.asprintf "%a" To_trace_checker.pp_error e));
      Alcotest.(check int) "everything delivered everywhere"
        (4 * 4 * 10)
        (Sequencer.deliveries run))
    [ 1; 2; 3 ]

let test_partition_stalls_cut_side () =
  (* Cut {2,3} away from the sequencer (0): they deliver nothing sent
     after the cut, while {0,1} keep going. *)
  let failures =
    List.map
      (fun e -> (30.0, e))
      (Fstatus.partition_events ~parts:[ [ 0; 1 ]; [ 2; 3 ] ])
  in
  let run =
    Sequencer.run_on ~backend:sim config
      ~workload:(workload ~senders:[ 0; 1 ] ~from_time:50.0 ~spacing:5.0 ~count:6)
      ~failures ~until:300.0 ~seed:7
  in
  let deliveries_at p =
    List.length
      (List.filter
         (fun (_, a) ->
           match a with
           | To_action.Brcv { dst; _ } -> Proc.equal dst p
           | _ -> false)
         (Timed.actions run.Sequencer.trace))
  in
  Alcotest.(check bool) "sequencer side progresses" true (deliveries_at 0 > 0);
  Alcotest.(check int) "cut side stalls" 0 (deliveries_at 2 + deliveries_at 3)

(* Mean bcast -> brcv latency over a client trace's actions. *)
let mean_latency actions =
  let sends = Hashtbl.create 64 in
  let total = ref 0.0 and count = ref 0 in
  List.iter
    (fun (t, a) ->
      match a with
      | To_action.Bcast (p, v) -> Hashtbl.replace sends (p, v) t
      | To_action.Brcv { src; value; _ } -> (
          match Hashtbl.find_opt sends (src, value) with
          | Some t0 ->
              total := !total +. (t -. t0);
              incr count
          | None -> ())
      | To_action.To_order _ -> ())
    actions;
  if !count = 0 then infinity else !total /. float_of_int !count

let test_latency_comparison_with_vstoto () =
  (* In a well-behaved network the sequencer is faster than the token
     protocol (the price VStoTO pays for partition tolerance). *)
  let wl = workload ~senders:procs ~from_time:5.0 ~spacing:12.0 ~count:6 in
  let seq_run =
    Sequencer.run_on ~backend:sim config ~workload:wl ~failures:[] ~until:400.0 ~seed:3
  in
  let vs_config = { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta } in
  let to_config = To_service.make_config vs_config in
  let vstoto_run =
    To_service.run to_config ~workload:wl ~failures:[] ~until:400.0 ~seed:3
  in
  let seq_latency = mean_latency (Timed.actions seq_run.Sequencer.trace) in
  let vstoto_latency =
    mean_latency (Timed.actions (To_service.client_trace vstoto_run))
  in
  Alcotest.(check bool)
    (Printf.sprintf "sequencer %.2f < vstoto %.2f" seq_latency vstoto_latency)
    true
    (seq_latency < vstoto_latency)

let test_vstoto_survives_where_sequencer_stalls () =
  (* The flip side: partition the sequencer into the minority; the
     sequencer baseline stalls for the majority, while VStoTO keeps
     confirming there. *)
  let majority = [ 1; 2; 3 ] in
  let failures =
    List.map
      (fun e -> (30.0, e))
      (Fstatus.partition_events ~parts:[ [ 0 ]; majority ])
  in
  let wl = workload ~senders:majority ~from_time:60.0 ~spacing:9.0 ~count:5 in
  let seq_run =
    Sequencer.run_on ~backend:sim config ~workload:wl ~failures ~until:500.0 ~seed:5
  in
  let vs_config = { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta } in
  let to_config = To_service.make_config vs_config in
  let vstoto_run =
    To_service.run to_config ~workload:wl ~failures ~until:500.0 ~seed:5
  in
  Alcotest.(check int) "sequencer: majority gets nothing" 0
    (Sequencer.deliveries seq_run);
  Alcotest.(check bool) "vstoto: majority keeps delivering" true
    (To_service.deliveries vstoto_run > 0)

(* ---------------- Skeen: the all-destinations protocol ---------------- *)

(* Skeen with full-group addressing is decentralized total order by
   timestamps: a message commits once every destination has proposed,
   so it needs to hear from every processor — the opposite end of the
   availability spectrum from the paper's partitionable service. *)
module Skeen = Gcs_skeen.Skeen

let skeen_config = Skeen.make_config ~procs

let skeen_run ~workload ~failures ~until ~seed =
  Skeen.run_on
    ~backend:(Gcs_conformance.Service.sim Gcs_conformance.Services.skeen ~delta)
    skeen_config
    ~workload:(List.map (fun (t, p, v) -> (t, p, Skeen.full_group v)) workload)
    ~failures ~until ~seed

let check_skeen_conforms ~label run =
  match Skeen.to_conforms skeen_config run with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "skeen trace rejected (%s): %s" label
        (Format.asprintf "%a" To_trace_checker.pp_error e)

let test_skeen_steady_state () =
  List.iter
    (fun seed ->
      let run =
        skeen_run
          ~workload:(workload ~senders:procs ~from_time:5.0 ~spacing:5.0 ~count:8)
          ~failures:[] ~until:300.0 ~seed
      in
      check_skeen_conforms ~label:(Printf.sprintf "seed %d" seed) run;
      Alcotest.(check int) "everything delivered everywhere"
        (4 * 4 * 8)
        (Skeen.deliveries run))
    [ 1; 2; 3 ]

let test_skeen_stalls_on_any_crash () =
  (* A message commits only once every destination has proposed, so a
     single unreachable processor freezes deliveries for everyone — the
     paper's motivation for partitionable services in one test. *)
  let failures =
    (30.0, Fstatus.Proc_status (3, Fstatus.Bad))
    :: List.concat_map
         (fun p ->
           if p = 3 then []
           else
             [
               (30.0, Fstatus.Link_status (p, 3, Fstatus.Bad));
               (30.0, Fstatus.Link_status (3, p, Fstatus.Bad));
             ])
         procs
  in
  let run =
    skeen_run
      ~workload:(workload ~senders:[ 0; 1 ] ~from_time:50.0 ~spacing:5.0 ~count:5)
      ~failures ~until:300.0 ~seed:7
  in
  check_skeen_conforms ~label:"crash" run;
  Alcotest.(check int) "everyone stalls after one crash" 0
    (Skeen.deliveries run)

let test_skeen_faster_than_token () =
  let wl = workload ~senders:procs ~from_time:5.0 ~spacing:12.0 ~count:6 in
  let skeen = skeen_run ~workload:wl ~failures:[] ~until:400.0 ~seed:3 in
  let vs_config = { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta } in
  let vstoto_run =
    To_service.run (To_service.make_config vs_config) ~workload:wl
      ~failures:[] ~until:400.0 ~seed:3
  in
  let skeen_latency = mean_latency (Timed.actions skeen.Skeen.trace) in
  let vstoto_latency =
    mean_latency (Timed.actions (To_service.client_trace vstoto_run))
  in
  Alcotest.(check bool)
    (Printf.sprintf "skeen %.2f < vstoto %.2f" skeen_latency vstoto_latency)
    true
    (skeen_latency < vstoto_latency)

(* ------------------------------ codec -------------------------------- *)

open QCheck

let gen_proc = Gen.int_range 0 9

(* Full byte range: no byte may be special to the frame. *)
let gen_value = Gen.(string_size ~gen:char (int_range 0 30))

let gen_packet =
  Gen.oneof
    [
      Gen.map2
        (fun origin value -> Sequencer.Request { origin; value })
        gen_proc gen_value;
      Gen.map3
        (fun seq origin value -> Sequencer.Ordered { seq; origin; value })
        (Gen.int_range 0 99999) gen_proc gen_value;
    ]

let print_packet = function
  | Sequencer.Request { origin; value } ->
      Printf.sprintf "request(%d,%S)" origin value
  | Sequencer.Ordered { seq; origin; value } ->
      Printf.sprintf "ordered(%d,%d,%S)" seq origin value

let equal_packet a b =
  match (a, b) with
  | Sequencer.Request a, Sequencer.Request b ->
      Proc.equal a.origin b.origin && String.equal a.value b.value
  | Sequencer.Ordered a, Sequencer.Ordered b ->
      a.seq = b.seq && Proc.equal a.origin b.origin && String.equal a.value b.value
  | _ -> false

let qcheck_roundtrip =
  Test.make ~name:"sequencer packet codec roundtrips" ~count:500
    (make ~print:print_packet gen_packet)
    (fun p ->
      match Sequencer.decode_packet (Sequencer.encode_packet p) with
      | Ok p' -> equal_packet p p'
      | Error e -> Test.fail_reportf "decode failed: %s" e)

let qcheck_decode_total =
  Test.make ~name:"sequencer packet decode is total" ~count:1000
    (make Gen.(string_size ~gen:char (int_range 0 60)))
    (fun s ->
      match Sequencer.decode_packet s with Ok _ | Error _ -> true)

let qcheck_truncation_total =
  Test.make ~name:"sequencer packet decode is total on every truncation"
    ~count:300 (make ~print:print_packet gen_packet)
    (fun p ->
      let s = Sequencer.encode_packet p in
      List.for_all
        (fun cut ->
          match Sequencer.decode_packet (String.sub s 0 cut) with
          | Ok _ -> false
          | Error _ -> true)
        (List.init (String.length s) Fun.id))

let () =
  Alcotest.run "baseline"
    [
      ( "sequencer",
        [
          Alcotest.test_case "steady state" `Quick test_steady_state;
          Alcotest.test_case "partition stalls cut side" `Quick
            test_partition_stalls_cut_side;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "sequencer faster when stable" `Quick
            test_latency_comparison_with_vstoto;
          Alcotest.test_case "vstoto survives sequencer partition" `Quick
            test_vstoto_survives_where_sequencer_stalls;
        ] );
      ( "skeen",
        [
          Alcotest.test_case "steady state" `Quick test_skeen_steady_state;
          Alcotest.test_case "stalls on any crash" `Quick
            test_skeen_stalls_on_any_crash;
          Alcotest.test_case "faster than the token when stable" `Quick
            test_skeen_faster_than_token;
        ] );
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_roundtrip; qcheck_decode_total; qcheck_truncation_total ] );
    ]
