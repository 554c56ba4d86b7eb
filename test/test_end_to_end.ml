(* End-to-end tests: the VStoTO automaton over the Section 8 VS
   implementation in the simulator (Theorems 7.1/7.2, operationally).
   Safety: every client trace is a TO-machine trace, under arbitrary
   failure scripts. Performance/fault-tolerance: after stabilization,
   TO-property(b', d', Q) holds with this implementation's bounds. *)

open Gcs_core
open Gcs_impl

let n = 5
let procs = Proc.all ~n
let delta = 1.0

let vs_config = { Vs_node.procs; p0 = procs; pi = 8.0; mu = 10.0; delta }
let config = To_service.make_config vs_config

(* Theorem 7.1 shape: TO stabilizes within b' = b + d and delivers within
   d' = d; our variant's bounds replace the paper's. *)
let to_b = Vs_node.impl_b vs_config +. Vs_node.impl_d vs_config
let to_d = Vs_node.impl_d vs_config +. (4.0 *. delta)

let workload ~senders ~from_time ~spacing ~count =
  List.concat_map
    (fun (i, p) ->
      List.init count (fun k ->
          ( from_time +. (float_of_int k *. spacing) +. (0.13 *. float_of_int i),
            p,
            Printf.sprintf "v%d.%d" p k )))
    (List.mapi (fun i p -> (i, p)) senders)

let check_to_conforms name run =
  match To_service.to_conforms config run with
  | Ok () -> ()
  | Error err ->
      Alcotest.failf "%s: client trace rejected by TO checker: %s" name
        (Format.asprintf "%a" To_trace_checker.pp_error err)

let check_vs_conforms name run =
  match To_service.vs_conforms config run with
  | Ok () -> ()
  | Error err ->
      Alcotest.failf "%s: VS trace rejected: %s" name
        (Format.asprintf "%a" Vs_trace_checker.pp_error err)

let partition_at t parts =
  List.map (fun e -> (t, e)) (Fstatus.partition_events ~parts)

let heal_at t = List.map (fun e -> (t, e)) (Fstatus.heal_events ~procs)

let test_steady_state () =
  List.iter
    (fun seed ->
      let run =
        To_service.run config
          ~workload:(workload ~senders:procs ~from_time:5.0 ~spacing:9.0 ~count:6)
          ~failures:[] ~until:400.0 ~seed
      in
      check_to_conforms "steady" run;
      check_vs_conforms "steady" run;
      Alcotest.(check bool) "deliveries happened" true
        (To_service.deliveries run > 0))
    [ 1; 2; 3 ]

let test_steady_state_to_property () =
  let until = 500.0 in
  let run =
    To_service.run config
      ~workload:(workload ~senders:procs ~from_time:5.0 ~spacing:11.0 ~count:8)
      ~failures:[] ~until ~seed:5
  in
  let report =
    To_property.check ~b:to_b ~d:to_d ~q:procs ~horizon:until
      (To_service.client_trace run)
  in
  if not (To_property.holds report) then
    Alcotest.failf "TO-property fails in steady state: %s"
      (Format.asprintf "%a" To_property.pp_report report)

let test_partition_majority_confirms () =
  (* During a partition, the majority side keeps delivering; Q = majority. *)
  let q = [ 0; 1; 2 ] in
  let until = 600.0 in
  let failures = partition_at 60.0 [ q; [ 3; 4 ] ] in
  let run =
    To_service.run config
      ~workload:(workload ~senders:q ~from_time:150.0 ~spacing:11.0 ~count:8)
      ~failures ~until ~seed:11
  in
  check_to_conforms "partition majority" run;
  let report =
    To_property.check ~b:to_b ~d:to_d ~q ~horizon:until
      (To_service.client_trace run)
  in
  if not (To_property.holds report) then
    Alcotest.failf "TO-property fails on majority side: %s"
      (Format.asprintf "%a" To_property.pp_report report)

let test_minority_blocks () =
  (* The minority side must not confirm anything sent after the split (it
     has no primary view). Safety: no deliveries of post-split minority
     values anywhere until heal; here there is no heal. *)
  let until = 500.0 in
  let failures = partition_at 60.0 [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let run =
    To_service.run config
      ~workload:(workload ~senders:[ 3; 4 ] ~from_time:100.0 ~spacing:9.0 ~count:5)
      ~failures ~until ~seed:13
  in
  check_to_conforms "minority" run;
  (* The only submissions are post-split at the minority, which has no
     primary view: nothing may be confirmed anywhere. *)
  Alcotest.(check int) "no deliveries of post-split minority values" 0
    (To_service.deliveries run)

let test_heal_merges_minority_values () =
  (* Values submitted in the minority during the partition must be
     delivered everywhere after the heal (the reconciliation protocol at
     work). TO-property with Q = all processors and l = heal time requires
     exactly this. *)
  let until = 800.0 in
  let failures = partition_at 60.0 [ [ 0; 1; 2 ]; [ 3; 4 ] ] @ heal_at 300.0 in
  let run =
    To_service.run config
      ~workload:
        (workload ~senders:procs ~from_time:100.0 ~spacing:13.0 ~count:6)
      ~failures ~until ~seed:17
  in
  check_to_conforms "heal" run;
  check_vs_conforms "heal" run;
  let report =
    To_property.check ~b:to_b ~d:to_d ~q:procs ~horizon:until
      (To_service.client_trace run)
  in
  if not (To_property.holds report) then
    Alcotest.failf "TO-property fails after heal: %s"
      (Format.asprintf "%a" To_property.pp_report report);
  (* Explicitly: some value from processor 3 or 4 reached processor 0. *)
  let minority_merged =
    List.exists
      (fun (_, a) ->
        match a with
        | To_action.Brcv { src; dst; _ } -> (src = 3 || src = 4) && dst = 0
        | _ -> false)
      (Timed.actions (To_service.client_trace run))
  in
  Alcotest.(check bool) "minority values merged after heal" true
    minority_merged

let test_crash_recover_preserves_order () =
  let until = 700.0 in
  let all_links_to p status t =
    List.concat_map
      (fun q ->
        if Proc.equal p q then []
        else
          [
            (t, Fstatus.Link_status (p, q, status));
            (t, Fstatus.Link_status (q, p, status));
          ])
      procs
  in
  let failures =
    ((100.0, Fstatus.Proc_status (2, Fstatus.Bad)) :: all_links_to 2 Fstatus.Bad 100.0)
    @ ((250.0, Fstatus.Proc_status (2, Fstatus.Good)) :: all_links_to 2 Fstatus.Good 250.0)
  in
  let run =
    To_service.run config
      ~workload:(workload ~senders:[ 0; 4 ] ~from_time:50.0 ~spacing:9.0 ~count:12)
      ~failures ~until ~seed:19
  in
  check_to_conforms "crash+recover" run

let test_stable_storage_variant () =
  (* The Keidar–Dolev-style variant trades latency for stable storage. It
     must still satisfy TO, and its delivery latency must exceed the
     direct variant's. *)
  let latency = 5.0 in
  let ss_config =
    To_service.make_config ~stable_storage_latency:latency vs_config
  in
  let wl = workload ~senders:procs ~from_time:5.0 ~spacing:11.0 ~count:6 in
  let direct = To_service.run config ~workload:wl ~failures:[] ~until:500.0 ~seed:23 in
  let stable =
    To_service.run ss_config ~workload:wl ~failures:[] ~until:500.0 ~seed:23
  in
  (match To_service.to_conforms ss_config stable with
  | Ok () -> ()
  | Error err ->
      Alcotest.failf "stable-storage trace rejected: %s"
        (Format.asprintf "%a" To_trace_checker.pp_error err));
  let mean_latency run =
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
      (Timed.actions (To_service.client_trace run));
    if !count = 0 then 0.0 else !total /. float_of_int !count
  in
  let direct_latency = mean_latency direct in
  let stable_latency = mean_latency stable in
  Alcotest.(check bool)
    (Printf.sprintf "stable storage adds latency (%.2f vs %.2f)" stable_latency
       direct_latency)
    true
    (stable_latency > direct_latency)

let test_batching_variant () =
  (* Batched submission: a window wide enough to cover several client
     submissions per processor must produce real multi-value batches
     (to.batch_size max > 1), deliver every value exactly once per node,
     and still pass the TO and VS conformance checkers — batched delivery
     preserves per-sender FIFO and the total order. *)
  let b_config = To_service.make_config ~batch_window:3.0 vs_config in
  (* Bursts: several values per sender inside one window. *)
  let wl =
    List.concat_map
      (fun p ->
        List.init 4 (fun k ->
            ( 5.0 +. (float_of_int p *. 0.1) +. (float_of_int k *. 0.5),
              p,
              Printf.sprintf "b%d.%d" p k )))
      procs
  in
  let run = To_service.run b_config ~workload:wl ~failures:[] ~until:400.0 ~seed:31 in
  (match To_service.to_conforms b_config run with
  | Ok () -> ()
  | Error err ->
      Alcotest.failf "batched trace rejected by TO checker: %s"
        (Format.asprintf "%a" To_trace_checker.pp_error err));
  (match To_service.vs_conforms b_config run with
  | Ok () -> ()
  | Error err ->
      Alcotest.failf "batched VS trace rejected: %s"
        (Format.asprintf "%a" Vs_trace_checker.pp_error err));
  Alcotest.(check int) "every node delivers the whole workload"
    (n * List.length wl)
    (To_service.deliveries run);
  match Gcs_stdx.Metrics.histogram run.To_service.metrics "to.batch_size" with
  | None -> Alcotest.fail "no to.batch_size observations — batching vacuous"
  | Some (_, _, _, max_batch) ->
      Alcotest.(check bool)
        (Printf.sprintf "multi-value batches formed (max %.0f)" max_batch)
        true (max_batch > 1.5)

let test_batching_timer_invariant () =
  (* Drive the TO-service handlers directly and pin the flush-timer
     contract: armed exactly on the empty→nonempty staging transition,
     every due entry drained per firing, re-armed with a strictly
     positive delay iff staging stays nonempty. Stable storage is set so
     due times matter (only the due prefix may flush). *)
  let b_config =
    To_service.make_config ~batch_window:2.0 ~stable_storage_latency:2.0
      vs_config
  in
  let h = To_service.handlers b_config in
  let me = 1 in
  let set_timers effects =
    List.filter_map
      (function
        | Gcs_sim.Engine.Set_timer { id; delay } -> Some (id, delay)
        | _ -> None)
      effects
  in
  let node = To_service.initial b_config me in
  let node, effects = h.Gcs_sim.Engine.on_input me ~now:5.0 "a" node in
  let flush_id, delay0 =
    match set_timers effects with
    | [ (id, d) ] -> (id, d)
    | l -> Alcotest.failf "first staged value armed %d timers" (List.length l)
  in
  Alcotest.(check (float 1e-9)) "armed for the submit delay" 2.0 delay0;
  Alcotest.(check int) "one value staged" 1
    (List.length (To_service.node_staging node));
  let node, effects = h.Gcs_sim.Engine.on_input me ~now:6.0 "b" node in
  Alcotest.(check int) "no re-arm while staging nonempty" 0
    (List.length (set_timers effects));
  Alcotest.(check int) "two values staged" 2
    (List.length (To_service.node_staging node));
  (* First firing: only "a" is due; "b" (due 8.0) must survive, and the
     re-arm must target it with a strictly positive delay. *)
  let node, effects = h.Gcs_sim.Engine.on_timer me ~now:7.0 ~id:flush_id node in
  (match To_service.node_staging node with
  | [ (t, v) ] ->
      Alcotest.(check string) "undue value kept" "b" v;
      Alcotest.(check (float 1e-9)) "kept its due time" 8.0 t
  | l -> Alcotest.failf "expected 1 staged value after flush, got %d" (List.length l));
  (match set_timers effects with
  | [ (id, d) ] ->
      Alcotest.(check int) "re-armed the flush timer" flush_id id;
      Alcotest.(check bool)
        (Printf.sprintf "strictly positive re-arm delay (%.3f)" d)
        true (d > 0.0)
  | l -> Alcotest.failf "expected 1 re-arm, got %d" (List.length l));
  (* Second firing drains the rest: staging empty ⇒ no timer pending. *)
  let node, effects = h.Gcs_sim.Engine.on_timer me ~now:8.0 ~id:flush_id node in
  Alcotest.(check int) "staging drained" 0
    (List.length (To_service.node_staging node));
  Alcotest.(check int) "no timer armed on empty staging" 0
    (List.length (set_timers effects));
  (* Co-due entries: two values staged at the same instant flush in ONE
     firing — the drain loop may not leave a due entry behind (a leftover
     would force a zero-delay re-arm). *)
  let node, _ = h.Gcs_sim.Engine.on_input me ~now:10.0 "c" node in
  let node, _ = h.Gcs_sim.Engine.on_input me ~now:10.0 "d" node in
  let node, effects = h.Gcs_sim.Engine.on_timer me ~now:12.0 ~id:flush_id node in
  Alcotest.(check int) "co-due entries drained together" 0
    (List.length (To_service.node_staging node));
  Alcotest.(check int) "nothing re-armed afterwards" 0
    (List.length (set_timers effects))

let test_token_closes_batch () =
  (* Drive the TO-service handlers directly and pin the flush rule of
     pure batching (no stable storage): a value goes out at once while
     the token has collected all of this node's earlier sends; otherwise
     it is staged, and the token visit that collects the node's last
     send flushes staging as one batch and cancels the timer. The window
     only bounds the wait when no token comes. *)
  let b_config = To_service.make_config ~batch_window:2.0 vs_config in
  let h = To_service.handlers b_config in
  let leader = List.hd procs and me = List.nth procs 1 in
  let set_timers effects =
    List.filter_map
      (function Gcs_sim.Engine.Set_timer { id; _ } -> Some id | _ -> None)
      effects
  in
  let cancelled effects =
    List.filter_map
      (function Gcs_sim.Engine.Cancel_timer { id } -> Some id | _ -> None)
      effects
  in
  let gpsnds effects =
    List.filter_map
      (function
        | Gcs_sim.Engine.Output
            (To_service.Vs_layer (Vs_action.Gpsnd { msg; _ })) ->
            Some msg
        | _ -> None)
      effects
  in
  let staged node = List.length (To_service.node_staging node) in
  let node = To_service.initial b_config me in
  (* Nothing uncollected: straight out, no timer, nothing staged. *)
  let node, effects = h.Gcs_sim.Engine.on_input me ~now:1.0 "a" node in
  Alcotest.(check int) "first value sent at once" 1
    (List.length (gpsnds effects));
  Alcotest.(check (list int)) "no flush timer for it" [] (set_timers effects);
  Alcotest.(check int) "nothing staged" 0 (staged node);
  (* "a" is not yet collected: later values wait, the timer armed once. *)
  let node, effects = h.Gcs_sim.Engine.on_input me ~now:1.1 "b" node in
  Alcotest.(check int) "no gpsnd while the last send is uncollected" 0
    (List.length (gpsnds effects));
  let flush_id =
    match set_timers effects with
    | [ id ] -> id
    | l -> Alcotest.failf "first staged value armed %d timers" (List.length l)
  in
  let node, effects = h.Gcs_sim.Engine.on_input me ~now:1.2 "c" node in
  Alcotest.(check (list int)) "not re-armed" [] (set_timers effects);
  Alcotest.(check int) "two values staged" 2 (staged node);
  (* The token visit that collects "a" closes the batch. *)
  let viewid = (View.initial procs).View.id in
  let node, effects =
    h.Gcs_sim.Engine.on_packet me ~now:1.5 ~src:leader
      (Wire.Token (Wire.fresh_token viewid))
      node
  in
  (match gpsnds effects with
  | [ Msg.Batch entries ] ->
      Alcotest.(check (list string)) "staged values in one batch"
        [ "b"; "c" ] (List.map snd entries)
  | l -> Alcotest.failf "expected one batch gpsnd, got %d gpsnds" (List.length l));
  Alcotest.(check (list int)) "flush timer cancelled" [ flush_id ]
    (cancelled effects);
  Alcotest.(check int) "staging empty" 0 (staged node);
  (* No token comes for the batch: the window still flushes. *)
  let node, effects = h.Gcs_sim.Engine.on_input me ~now:2.0 "d" node in
  Alcotest.(check int) "staged behind the uncollected batch" 1 (staged node);
  Alcotest.(check (list int)) "timer armed again" [ flush_id ]
    (set_timers effects);
  let node, effects = h.Gcs_sim.Engine.on_timer me ~now:4.0 ~id:flush_id node in
  Alcotest.(check int) "window flush sends it" 1
    (List.length (gpsnds effects));
  Alcotest.(check int) "staging drained by the window" 0 (staged node)

let test_token_starts_at_once () =
  (* A batch window does not hold the token back: the leader launches at
     start, as without one, so a preloaded run's first gprcv comes within
     a rotation, well before three windows. Deterministic: the
     conformance suite's sim profile. *)
  let window = 2.0 in
  let profile =
    Gcs_nemesis.Suite.sim_profile ~batch_window:window
      Gcs_conformance.Services.vstoto
  in
  let config = profile.Gcs_nemesis.Suite.config in
  let wl =
    List.concat_map
      (fun p -> List.init 3 (fun k -> (0.0, p, Printf.sprintf "p%d.%d" p k)))
      config.To_service.vs.Vs_node.procs
  in
  let run =
    To_service.run config ~workload:wl ~failures:[] ~until:100.0 ~seed:1
  in
  let first_gprcv =
    List.find_map
      (function t, Vs_action.Gprcv _ -> Some t | _ -> None)
      (Timed.actions (To_service.vs_trace run))
  in
  match first_gprcv with
  | None -> Alcotest.fail "no gprcv in a preloaded run"
  | Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "first gprcv at %g, before 3 windows (%g)" t
           (3.0 *. window))
        true
        (t < 3.0 *. window)

let test_submit_during_view_change () =
  (* Regression: values staged when a Newview lands must be flushed into
     the new view, not stranded. A steady submission stream across a
     partition and heal keeps staging nonempty at most instants, so each
     view install catches staged values; the observer asserts staging is
     empty immediately after every install, and completeness at the
     horizon shows no accepted value was lost. *)
  let b_config = To_service.make_config ~batch_window:3.0 vs_config in
  let wl =
    List.concat_map
      (fun p ->
        List.init 30 (fun k ->
            ( 15.0 +. (float_of_int k *. 1.4) +. (0.11 *. float_of_int p),
              p,
              Printf.sprintf "w%d.%d" p k )))
      procs
  in
  let failures =
    partition_at 40.0 [ [ 0; 1; 2 ]; [ 3; 4 ] ] @ heal_at 120.0
  in
  let caught_staged = ref false in
  let observe _p pre post =
    if
      To_service.node_views_installed post
      > To_service.node_views_installed pre
    then begin
      if To_service.node_staging pre <> [] then caught_staged := true;
      Alcotest.(check int) "staging empty right after a view install" 0
        (List.length (To_service.node_staging post))
    end
  in
  let run =
    To_service.run_on ~observe
      ~backend:
        (Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta))
      b_config ~workload:wl ~failures ~until:500.0 ~seed:47
  in
  (match To_service.to_conforms b_config run with
  | Ok () -> ()
  | Error err ->
      Alcotest.failf "view-change batching trace rejected: %s"
        (Format.asprintf "%a" To_trace_checker.pp_error err));
  Alcotest.(check bool)
    "some view install actually caught staged values" true !caught_staged;
  Alcotest.(check int) "no accepted value lost across view changes"
    (n * List.length wl)
    (To_service.deliveries run)

let test_weighted_quorum_primary () =
  (* The paper fixes an arbitrary intersecting quorum system Q, not
     necessarily majorities. Give processor 0 enough weight that {0, x} is
     a quorum: after a 2-3 split that keeps 0 in the SMALL side, the
     2-processor side is primary and keeps confirming, while the
     3-processor side (a majority!) blocks. *)
  let weights = Proc.Map.of_seq (List.to_seq [ (0, 4); (1, 1); (2, 1); (3, 1); (4, 1) ]) in
  let quorums = Quorum.weighted_majorities ~weights in
  let wconfig = To_service.make_config ~quorums vs_config in
  let failures = partition_at 40.0 [ [ 0; 1 ]; [ 2; 3; 4 ] ] in
  let wl =
    workload ~senders:[ 0; 2 ] ~from_time:100.0 ~spacing:11.0 ~count:5
  in
  let run = To_service.run wconfig ~workload:wl ~failures ~until:500.0 ~seed:29 in
  (match To_service.to_conforms wconfig run with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "weighted quorum TO: %s"
        (Format.asprintf "%a" To_trace_checker.pp_error e));
  let deliveries_at p =
    List.length
      (List.filter
         (fun (_, a) ->
           match a with
           | To_action.Brcv { dst; _ } -> Proc.equal dst p
           | _ -> false)
         (Timed.actions (To_service.client_trace run)))
  in
  Alcotest.(check bool) "weighted side (with 0) confirms" true
    (deliveries_at 1 > 0);
  Alcotest.(check int) "numeric majority without weight blocks" 0
    (deliveries_at 3)

let prop_random_failures_preserve_to =
  QCheck.Test.make ~name:"random failure scripts preserve TO safety" ~count:15
    QCheck.small_nat
    (fun seed ->
      let prng = Gcs_stdx.Prng.create ((seed * 13) + 3) in
      let failures =
        List.init 10 (fun i ->
            let t = 30.0 +. (float_of_int i *. 30.0) in
            let p = Gcs_stdx.Prng.pick_exn prng procs in
            let q = Gcs_stdx.Prng.pick_exn prng procs in
            let s =
              match Gcs_stdx.Prng.int prng 3 with
              | 0 -> Fstatus.Good
              | 1 -> Fstatus.Bad
              | _ -> Fstatus.Ugly
            in
            if Gcs_stdx.Prng.bool prng || Proc.equal p q then
              (t, Fstatus.Proc_status (p, s))
            else (t, Fstatus.Link_status (p, q, s)))
      in
      let run =
        To_service.run config
          ~workload:(workload ~senders:procs ~from_time:5.0 ~spacing:7.0 ~count:10)
          ~failures ~until:450.0 ~seed
      in
      Result.is_ok (To_service.to_conforms config run)
      && Result.is_ok (To_service.vs_conforms config run))

(* Allocation pin for the VStoTO drain: a preloaded burst of 2,500
   values per origin on three processors, batched, in one domain. The
   drain labels, confirms and reports each value in one pass and builds
   no automaton per action; rebuilding one per action, as the drain once
   did, costs ~875 minor-heap words per client delivery against ~344. *)
let test_burst_drain_allocation () =
  let procs = Proc.all ~n:3 in
  let per_origin = 2500 in
  let config =
    To_service.make_config ~batch_window:0.02
      { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1e6; delta = 0.001 }
  in
  let workload =
    List.concat_map
      (fun p ->
        List.init per_origin (fun k -> (0.0, p, Printf.sprintf "v%d.%d" p k)))
      procs
  in
  let before = Gc.minor_words () in
  let run =
    To_service.run config ~workload ~failures:[] ~until:5.0 ~seed:1
  in
  let words = Gc.minor_words () -. before in
  let deliveries = To_service.deliveries run in
  Alcotest.(check int) "every value delivered everywhere"
    (3 * 3 * per_origin) deliveries;
  let per_delivery = words /. float_of_int deliveries in
  if per_delivery > 500. then
    Alcotest.failf "%.0f minor words per client delivery (bound 500)"
      per_delivery

(* One [burst] node's handler work, as test/domain_scaling.ml runs it:
   2,500 client values taken and flushed as one batch. On a bus each node
   runs in a domain of its own, and every minor collection stops them
   all, so the node may take none that its allocation does not explain. *)
let test_burst_node_forces_no_collection () =
  let procs = Proc.all ~n:3 in
  let config =
    To_service.make_config ~batch_window:0.02
      { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1e6; delta = 5.0 }
  in
  let h = To_service.handlers config in
  let node, _ = h.on_start 0 (To_service.initial config 0) in
  let flush = ref None in
  let staged, flushed =
    Gc_bound.unforced "burst node" (fun () ->
        let node = ref node in
        for k = 0 to 2_499 do
          let value = Printf.sprintf "0.%d:%s" k (String.make 64 'x') in
          let node', effects = h.on_input 0 ~now:0.0 value !node in
          node := node';
          List.iter
            (function
              | Gcs_sim.Engine.Set_timer { id; _ } -> flush := Some id
              | _ -> ())
            effects
        done;
        match !flush with
        | Some id -> (!node, fst (h.on_timer 0 ~now:0.02 ~id !node))
        | None -> Alcotest.fail "no flush timer armed")
  in
  Alcotest.(check bool) "values were staged" true
    (List.length (To_service.node_staging staged) > 2_000);
  Alcotest.(check int) "the flush takes them all" 0
    (List.length (To_service.node_staging flushed))

let () =
  Alcotest.run "end_to_end"
    [
      ( "safety",
        [
          Alcotest.test_case "steady state conformance" `Quick
            test_steady_state;
          Alcotest.test_case "minority blocks while partitioned" `Quick
            test_minority_blocks;
          Alcotest.test_case "crash and recover" `Quick
            test_crash_recover_preserves_order;
        ] );
      ( "to-property",
        [
          Alcotest.test_case "steady state" `Quick test_steady_state_to_property;
          Alcotest.test_case "majority side confirms" `Quick
            test_partition_majority_confirms;
          Alcotest.test_case "heal merges minority values" `Quick
            test_heal_merges_minority_values;
          Alcotest.test_case "weighted (non-majority) quorums" `Quick
            test_weighted_quorum_primary;
        ] );
      ( "variants",
        [
          Alcotest.test_case "stable storage adds latency" `Quick
            test_stable_storage_variant;
          Alcotest.test_case "batching delivers all, in order" `Quick
            test_batching_variant;
          Alcotest.test_case "flush timer invariant" `Quick
            test_batching_timer_invariant;
          Alcotest.test_case "token visit closes the batch" `Quick
            test_token_closes_batch;
          Alcotest.test_case "token starts at once under a window" `Quick
            test_token_starts_at_once;
          Alcotest.test_case "submit during view change" `Quick
            test_submit_during_view_change;
        ] );
      ( "cost",
        [
          Alcotest.test_case "burst drain allocation" `Quick
            test_burst_drain_allocation;
          Alcotest.test_case "burst node forces no collection" `Quick
            test_burst_node_forces_no_collection;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_failures_preserve_to ] );
    ]
