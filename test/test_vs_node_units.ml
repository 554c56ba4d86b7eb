(* Unit tests of Vs_node internals that the scenario tests exercise only
   indirectly: ring topology, analytical bounds, token bookkeeping. *)

open Gcs_core
open Gcs_impl

let config =
  { Vs_node.procs = Proc.all ~n:5; p0 = Proc.all ~n:5; pi = 8.0; mu = 10.0; delta = 1.0 }

let test_bounds_formulas () =
  (* b = 9δ + max(π + (n+3)δ, μ) and d = 2π + nδ, literally. *)
  Alcotest.(check (float 0.001)) "paper b" (9.0 +. max (8.0 +. 8.0) 10.0)
    (Vs_node.paper_b config);
  Alcotest.(check (float 0.001)) "paper d" ((2.0 *. 8.0) +. 5.0)
    (Vs_node.paper_d config);
  (* μ-dominated regime. *)
  let slow_probe = { config with Vs_node.mu = 40.0 } in
  Alcotest.(check (float 0.001)) "paper b with large mu" (9.0 +. 40.0)
    (Vs_node.paper_b slow_probe);
  Alcotest.(check bool) "impl bounds dominate paper bounds" true
    (Vs_node.impl_b config >= Vs_node.paper_b config
    && Vs_node.impl_d config >= Vs_node.paper_d config)

let test_bounds_monotone_in_n () =
  let at n = { config with Vs_node.procs = Proc.all ~n; p0 = Proc.all ~n } in
  let values f = List.map (fun n -> f (at n)) [ 2; 3; 4; 5; 6; 7 ] in
  let monotone xs =
    let rec go = function
      | a :: (b :: _ as rest) -> a <= b && go rest
      | _ -> true
    in
    go xs
  in
  Alcotest.(check bool) "b monotone in n" true (monotone (values Vs_node.paper_b));
  Alcotest.(check bool) "d monotone in n" true (monotone (values Vs_node.paper_d));
  Alcotest.(check bool) "timeout monotone in n" true
    (monotone (values Vs_node.token_timeout))

let test_initial_states () =
  let s0 = Vs_node.initial config 0 in
  (match Vs_node.current_view s0 with
  | Some v ->
      Alcotest.(check bool) "P0 member starts in v0" true
        (View_id.equal v.View.id View_id.g0)
  | None -> Alcotest.fail "P0 member has no view");
  let outsider_config = { config with Vs_node.p0 = [ 1; 2 ] } in
  let s3 = Vs_node.initial outsider_config 3 in
  Alcotest.(check bool) "outsider starts with no view" true
    (Vs_node.current_view s3 = None);
  Alcotest.(check int) "no installs yet" 0 (Vs_node.views_installed s0);
  Alcotest.(check int) "token high-water starts at zero" 0
    (Vs_node.max_token_entries s0)

let test_fresh_token () =
  let g1 = View_id.make ~num:1 ~origin:0 in
  let tok : unit Wire.token = Wire.fresh_token g1 in
  Alcotest.(check int) "starts at index 1" 1 tok.Wire.next_idx;
  Alcotest.(check int) "no entries" 0 (List.length tok.Wire.entries);
  Alcotest.(check bool) "view id carried" true
    (View_id.equal tok.Wire.viewid g1)

(* Bounds are consistent with behaviour: in a fresh stable system the
   first client message is safe within impl_d. *)
let test_first_message_safe_within_bound () =
  let run =
    Vs_service.run config
      ~workload:[ (50.0, 2, "only") ]
      ~failures:[] ~until:200.0 ~seed:3
  in
  let safes =
    List.filter_map
      (fun (t, a) ->
        match a with Vs_action.Safe _ -> Some t | _ -> None)
      (Gcs_core.Timed.actions run.Vs_service.trace)
  in
  Alcotest.(check int) "safe at all five members" 5 (List.length safes);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "safe by the bound (t=%.2f)" t)
        true
        (t -. 50.0 <= Vs_node.impl_d config))
    safes

(* A lone value, submitted at t = 50 while the idle token sits at the
   leader between heartbeats (π = 40). It waits at most π for the next
   launch; from then on the token keeps circulating while it carries the
   entry, so the entry is delivered everywhere within one rotation and
   safe everywhere within two more: π + 3nδ plus two hops of slack. With
   a token relaunched only every π, the safe pass waits on a second
   heartbeat instead. *)
let lone_value_config =
  { Vs_node.procs = Proc.all ~n:5; p0 = Proc.all ~n:5; pi = 40.0; mu = 1000.0; delta = 1.0 }

let lone_value_until = 200.0

let lone_value_run () =
  let metrics = Gcs_stdx.Metrics.create () in
  let run =
    Vs_service.run ~metrics lone_value_config
      ~workload:[ (50.0, 2, "only") ]
      ~failures:[] ~until:lone_value_until ~seed:3
  in
  (run, metrics)

let test_lone_value_safe_without_idle_heartbeat () =
  let run, _ = lone_value_run () in
  let c = lone_value_config in
  let n = float_of_int (List.length c.Vs_node.procs) in
  let bound = c.Vs_node.pi +. (3.0 *. n *. c.Vs_node.delta) +. (2.0 *. c.Vs_node.delta) in
  let safes =
    List.filter_map
      (fun (t, a) -> match a with Vs_action.Safe _ -> Some t | _ -> None)
      (Gcs_core.Timed.actions run.Vs_service.trace)
  in
  Alcotest.(check int) "safe at all five members" 5 (List.length safes);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "safe within pi + 3n.delta + 2.delta = %.0f (took %.2f)" bound
           (t -. 50.0))
        true
        (t -. 50.0 <= bound && t -. 50.0 <= Vs_node.impl_d c))
    safes

(* The same run: the idle heartbeat survives (at least one launch per π)
   and the immediate relaunches stop once the entry is pruned (a token
   that kept spinning would launch thousands of times). *)
let test_token_heartbeat_without_spin () =
  let _, metrics = lone_value_run () in
  let launched = Gcs_stdx.Metrics.counter metrics "vs.tokens_launched" in
  let periods = lone_value_until /. lone_value_config.Vs_node.pi in
  let lo = int_of_float (Float.floor periods) in
  let hi = int_of_float (Float.ceil periods) + 4 in
  Alcotest.(check bool)
    (Printf.sprintf "%d <= tokens launched (%d) <= %d" lo launched hi)
    true
    (lo <= launched && launched <= hi)

(* Ring topology, including the wrap at the largest member and the
   invariant error on a corrupt (empty) view. *)
let test_ring_successor () =
  let view = View.make (View_id.make ~num:1 ~origin:0) [ 1; 3; 7 ] in
  Alcotest.(check int) "middle hops to next" 3 (Vs_node.ring_successor view 1);
  Alcotest.(check int) "gap is skipped" 7 (Vs_node.ring_successor view 3);
  Alcotest.(check int) "largest wraps to smallest" 1
    (Vs_node.ring_successor view 7);
  (* A non-member asks for its successor during membership churn: same
     rule, next-greater id, wrapping past the end. *)
  Alcotest.(check int) "non-member between members" 7
    (Vs_node.ring_successor view 4);
  Alcotest.(check int) "non-member above all members wraps" 1
    (Vs_node.ring_successor view 9);
  let empty = View.make (View_id.make ~num:2 ~origin:0) [] in
  Alcotest.check_raises "empty view is a diagnosed invariant violation"
    (Invalid_argument
       "Vs_node.ring_successor: invariant violation at proc 5: successor \
        requested in an empty view")
    (fun () -> ignore (Vs_node.ring_successor empty 5))

let () =
  Alcotest.run "vs_node_units"
    [
      ( "internals",
        [
          Alcotest.test_case "bound formulas" `Quick test_bounds_formulas;
          Alcotest.test_case "ring successor" `Quick test_ring_successor;
          Alcotest.test_case "bounds monotone in n" `Quick
            test_bounds_monotone_in_n;
          Alcotest.test_case "initial states" `Quick test_initial_states;
          Alcotest.test_case "fresh token" `Quick test_fresh_token;
          Alcotest.test_case "first message safe within bound" `Quick
            test_first_message_safe_within_bound;
          Alcotest.test_case "lone value safe without idle heartbeat" `Quick
            test_lone_value_safe_without_idle_heartbeat;
          Alcotest.test_case "token heartbeat without spin" `Quick
            test_token_heartbeat_without_spin;
        ] );
    ]
