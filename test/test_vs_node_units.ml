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

(* A lone value needs no heartbeat. Its send asks the leader for the
   token (a [Want]): a resting token is launched at once, and one in
   flight is relaunched when it returns. From then on the token keeps
   circulating while it carries the entry. So the value is safe
   everywhere within about three rotations plus the [Want]'s hop:
   (3n + 3)δ, with no π term. Waiting out the heartbeat instead costs up
   to π more. The sweep covers the leader's own sends and every ring
   position, a send while the first token is in flight (t = 0.5) and
   sends while the token rests (t = 50, 63.3). *)
let lone_value_config =
  { Vs_node.procs = Proc.all ~n:5; p0 = Proc.all ~n:5; pi = 40.0; mu = 1000.0; delta = 1.0 }

let lone_value_until = 200.0

let lone_value_run ?(at = 50.0) ?(origin = 2) ?(seed = 3) () =
  let metrics = Gcs_stdx.Metrics.create () in
  let run =
    Vs_service.run ~metrics lone_value_config
      ~workload:[ (at, origin, "only") ]
      ~failures:[] ~until:lone_value_until ~seed
  in
  (run, metrics)

let test_lone_value_safe_without_idle_heartbeat () =
  let c = lone_value_config in
  let n = float_of_int (List.length c.Vs_node.procs) in
  let bound = ((3.0 *. n) +. 3.0) *. c.Vs_node.delta in
  List.iter
    (fun (origin, at, seed) ->
      let run, _ = lone_value_run ~at ~origin ~seed () in
      let safes =
        List.filter_map
          (fun (t, a) -> match a with Vs_action.Safe _ -> Some t | _ -> None)
          (Gcs_core.Timed.actions run.Vs_service.trace)
      in
      let case = Printf.sprintf "origin %d at %g seed %d" origin at seed in
      Alcotest.(check int) (case ^ ": safe at all five members") 5 (List.length safes);
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: safe within (3n+3).delta = %.0f (took %.2f)" case
               bound (t -. at))
            true
            (t -. at <= bound))
        safes)
    (List.concat_map
       (fun origin ->
         List.concat_map
           (fun at -> List.map (fun seed -> (origin, at, seed)) [ 1; 3 ])
           [ 0.5; 50.0; 63.3 ])
       [ 0; 1; 2; 4 ])

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

(* A run of [Vs_node] on the simulator that also counts, per processor,
   the [Want]s it sends with no token visit since its previous one
   ([repeats]). *)
let counted_run config ~workload ~until ~seed =
  let metrics = Gcs_stdx.Metrics.create () in
  let repeats = Hashtbl.create 8 in
  let asked = Hashtbl.create 8 in
  let bump tbl p = Hashtbl.replace tbl p (1 + Option.value ~default:0 (Hashtbl.find_opt tbl p)) in
  let h = Vs_node.handlers ~metrics config in
  let counting p (state, effects) =
    List.iter
      (function
        | Gcs_sim.Engine.Send { packet = Wire.Want _; _ } ->
            if Hashtbl.mem asked p then bump repeats p;
            Hashtbl.replace asked p ()
        | _ -> ())
      effects;
    (state, effects)
  in
  let handlers =
    {
      Gcs_sim.Engine.on_start = (fun p s -> counting p (h.on_start p s));
      on_input = (fun p ~now m s -> counting p (h.on_input p ~now m s));
      on_packet =
        (fun p ~now ~src packet s ->
          (match packet with Wire.Token _ -> Hashtbl.remove asked p | _ -> ());
          counting p (h.on_packet p ~now ~src packet s));
      on_timer = (fun p ~now ~id s -> counting p (h.on_timer p ~now ~id s));
    }
  in
  let result =
    Gcs_sim.Engine.run ~metrics
      (Gcs_sim.Engine.default_config ~delta:config.Vs_node.delta)
      ~procs:config.Vs_node.procs ~handlers ~init:(Vs_node.initial config)
      ~inputs:workload ~failures:[] ~until ~prng:(Gcs_stdx.Prng.create seed)
  in
  let get tbl p = Option.value ~default:0 (Hashtbl.find_opt tbl p) in
  (result, metrics, get repeats)

(* Demand launches cost at most a bounded number of launches per value.
   Each seed draws two to five bursts of sends (one origin, up to four
   values δ/10 apart) in the first half of a stable run. Launches stay
   within the heartbeats plus [c] per value: at most one demand launch
   per [Want] and a few relaunches while the value's entry is not yet
   safe everywhere. A demand flag that is never cleared keeps the token
   spinning and breaks that bound. Each member also sends at most one
   [Want] between two token visits: the leader folds the [Want]s of one
   rotation into one flag, so a member that asked on every send would
   add packets rather than launches, and this second check is the one
   that sees it. *)
let test_launches_bounded_by_sends () =
  let config = lone_value_config in
  let until = 600.0 and c = 4 in
  for seed = 1 to 12 do
    let prng = Gcs_stdx.Prng.create (1000 + seed) in
    let workload =
      List.concat
        (List.init (2 + Gcs_stdx.Prng.int prng 4) (fun b ->
             let origin = Gcs_stdx.Prng.pick_exn prng config.Vs_node.procs in
             let start = Gcs_stdx.Prng.float prng *. until /. 2.0 in
             List.init (1 + Gcs_stdx.Prng.int prng 4) (fun k ->
                 ( start +. (0.1 *. float_of_int k),
                   origin,
                   Printf.sprintf "b%d.%d" b k ))))
      |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
    in
    let values = List.length workload in
    let result, metrics, repeats =
      counted_run config ~workload ~until ~seed
    in
    let safes =
      List.length
        (List.filter
           (function _, Vs_action.Safe _ -> true | _ -> false)
           (Gcs_core.Timed.actions result.Gcs_sim.Engine.trace))
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every value safe everywhere" seed)
      (5 * values) safes;
    let launched = Gcs_stdx.Metrics.counter metrics "vs.tokens_launched" in
    let heartbeats = int_of_float (Float.ceil (until /. config.Vs_node.pi)) in
    let bound = heartbeats + (c * values) in
    if launched > bound then
      Alcotest.failf "seed %d: %d launches for %d values (bound %d + %d x %d = %d)"
        seed launched values heartbeats c values bound;
    List.iter
      (fun p ->
        if repeats p > 0 then
          Alcotest.failf "seed %d: proc %d sent %d wants with no token visit since its last"
            seed p (repeats p))
      config.Vs_node.procs
  done

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
          Alcotest.test_case "launches bounded by sends" `Quick
            test_launches_bounded_by_sends;
        ] );
    ]
