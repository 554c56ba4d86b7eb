(* Cross-transport conformance: every registered total-order service's
   whole oracle chain over every fault case, on each backend — for
   VStoTO the TO/VS trace conformance, the Theorem 7.2 delivery bound
   and the node-state invariants; for Skeen the group-order oracle, its
   node invariants and completeness on the clean case; for the
   sequencer TO conformance and completeness on the clean case.

   The sim profile runs in virtual time and is free; the bus profile runs
   the same cases in wall-clock time (a few seconds per case, early-stopped
   once the workload has visibly drained and the fault schedule has fully
   played). A failure prints the case, seed and offending oracle. *)

open Gcs_conformance
open Gcs_nemesis

(* Every case submits workload_count values per processor. A service
   that completes under faults (VStoTO recovers through state exchange)
   must deliver the whole workload at every destination in each case;
   one without retransmission (Skeen, the sequencer) can legitimately
   lose liveness in a faulty case, so there the floor is per-case: the
   clean case must deliver everything, every case must deliver
   something. Either way a passing case can never be an accidentally
   empty run. *)
let check_profile profile () =
  let (module S : Service.S) = profile.Suite.service in
  let outcomes = Suite.run_all profile ~seed:7 in
  Alcotest.(check int) "all cases ran" 5 (List.length outcomes);
  let full =
    List.fold_left
      (fun acc (_, dests) -> acc + List.length dests)
      0 (Suite.addressing profile)
  in
  List.iter
    (fun o ->
      if not (Harness.passed o) then
        Alcotest.failf "%s" (Harness.to_json o);
      let case = o.Harness.scenario.Scenario.name in
      let floor =
        if S.completes_under_faults || case = "clean" then full else 1
      in
      if o.Harness.deliveries < floor then
        Alcotest.failf "%s: only %d deliveries (floor %d) — vacuous run?" case
          o.Harness.deliveries floor)
    outcomes

(* The suite's mixed addressing must exercise overlapping partial
   multicasts across origins: every processor is a destination of some
   partial submission, partial subsets overlap without being equal, and
   the subsets an origin addresses differ from origin to origin. *)
let check_addressing () =
  let profile = Suite.sim_profile Services.skeen in
  let addressing = Suite.addressing profile in
  let procs =
    profile.Suite.config.Gcs_impl.To_service.vs.Gcs_impl.Vs_node.procs
  in
  let n = List.length procs in
  let partial =
    List.filter (fun (_, dests) -> List.length dests < n) addressing
  in
  Alcotest.(check bool)
    "full-group submissions too" true
    (List.length partial < List.length addressing);
  List.iter
    (fun p ->
      if not (List.exists (fun (_, dests) -> List.mem p dests) partial) then
        Alcotest.failf "processor %d is in no partial subset" p)
    procs;
  let subsets ?origin () =
    List.sort_uniq compare
      (List.filter_map
         (fun (o, dests) ->
           if Option.fold ~none:true ~some:(( = ) o) origin then
             Some (List.sort compare dests)
           else None)
         partial)
  in
  let per_origin =
    List.sort_uniq compare (List.map (fun p -> subsets ~origin:p ()) procs)
  in
  Alcotest.(check int)
    "partial subsets vary by origin" n (List.length per_origin);
  let subsets = subsets () in
  let overlapping =
    List.exists
      (fun a ->
        List.exists
          (fun b -> a <> b && List.exists (fun p -> List.mem p b) a)
          subsets)
      subsets
  in
  Alcotest.(check bool) "overlapping distinct subsets" true overlapping

(* The registry's default service (VStoTO) keeps its historical case
   names; every other service is prefixed with its name. A service with
   a batching layer also runs batched: submissions coalesce into
   Msg.Batch gpsnds, and the same oracle battery plus the batch
   view-boundary check must still hold, including per-sender FIFO and
   total order via TO-conformance. *)
let cases ~label ~speed ~profile ~batch_window =
  List.concat
    (List.mapi
       (fun i service ->
         let (module S : Service.S) = service in
         let prefix = if i = 0 then "" else S.name ^ ": " in
         let oracles = if i = 0 then "all" else S.name in
         Alcotest.test_case
           (Printf.sprintf "%sall cases, %s oracles" prefix oracles)
           speed
           (check_profile (profile None service))
         ::
         (if S.batching then
            [
              Alcotest.test_case
                (Printf.sprintf "%sall cases, %s oracles (batched)" prefix
                   oracles)
                speed
                (check_profile (profile (Some batch_window) service));
            ]
          else []))
       Services.all)
  |> fun tests -> (label, tests)

(* Every service's run records the same TO-level metrics from its client
   trace: one [to.deliveries] per brcv, and one latency sample for each. *)
let check_to_metrics () =
  let procs = Gcs_core.Proc.all ~n:4 in
  let shared =
    Gcs_impl.To_service.make_config
      { Gcs_impl.Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }
  in
  List.iter
    (fun service ->
      let (module S : Service.S) = service in
      let config = S.configure shared in
      let workload =
        List.concat_map
          (fun p ->
            List.init 3 (fun k ->
                ( float_of_int (1 + (4 * k)),
                  p,
                  S.lift config p (Printf.sprintf "m%d.%d" p k) )))
          procs
      in
      let metrics = Gcs_stdx.Metrics.create () in
      let run =
        Service.run (module S) ~metrics
          ~backend:(Service.sim service ~delta:1.0)
          config ~workload ~failures:[] ~until:300.0 ~seed:3
      in
      let count p =
        List.length
          (List.filter p
             (Gcs_core.Timed.actions (S.client_trace run.Gcs_transport.Iface.trace)))
      in
      let brcvs =
        count (fun (_, a) ->
            match a with Gcs_core.To_action.Brcv _ -> true | _ -> false)
      in
      let bcasts =
        count (fun (_, a) ->
            match a with Gcs_core.To_action.Bcast _ -> true | _ -> false)
      in
      Alcotest.(check bool) (S.name ^ ": deliveries happened") true (brcvs > 0);
      Alcotest.(check int) (S.name ^ ": to.bcasts") bcasts
        (Gcs_stdx.Metrics.counter metrics "to.bcasts");
      Alcotest.(check int) (S.name ^ ": to.deliveries") brcvs
        (Gcs_stdx.Metrics.counter metrics "to.deliveries");
      match Gcs_stdx.Metrics.histogram metrics "to.bcast_brcv_latency" with
      | Some (_, samples, _, _) ->
          Alcotest.(check int) (S.name ^ ": one latency sample per delivery")
            brcvs samples
      | None -> Alcotest.failf "%s: no to.bcast_brcv_latency histogram" S.name)
    Services.all

let () =
  Alcotest.run "cross-transport conformance"
    [
      cases ~label:"sim" ~speed:`Quick
        ~profile:(fun batch_window s -> Suite.sim_profile ?batch_window s)
        ~batch_window:2.0;
      cases ~label:"bus" ~speed:`Slow
        ~profile:(fun batch_window s -> Suite.bus_profile ?batch_window s)
        ~batch_window:0.2;
      ( "workload",
        [
          Alcotest.test_case "skeen: mixed addressing" `Quick check_addressing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "to.* from Service.run for every service" `Quick
            check_to_metrics;
        ] );
    ]
