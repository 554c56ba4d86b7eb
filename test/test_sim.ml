(* Tests for the discrete-event simulator: the event queue, delivery
   semantics under good/bad/ugly statuses, timers, and determinism. *)

open Gcs_core
open Gcs_sim

(* ---------------- event queue ---------------- *)

let test_queue_order () =
  let q = Event_queue.empty in
  let q = Event_queue.add q ~time:3.0 "c" in
  let q = Event_queue.add q ~time:1.0 "a" in
  let q = Event_queue.add q ~time:2.0 "b" in
  let rec drain q acc =
    match Event_queue.pop q with
    | Some (_, v, q) -> drain q (v :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (drain q [])

let test_queue_fifo_ties () =
  let q = Event_queue.empty in
  let q = Event_queue.add q ~time:1.0 "first" in
  let q = Event_queue.add q ~time:1.0 "second" in
  let q = Event_queue.add q ~time:1.0 "third" in
  let rec drain q acc =
    match Event_queue.pop q with
    | Some (_, v, q) -> drain q (v :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list string)) "FIFO among equal times"
    [ "first"; "second"; "third" ] (drain q [])

let test_queue_size () =
  let q = Event_queue.add (Event_queue.add Event_queue.empty ~time:1.0 1) ~time:2.0 2 in
  Alcotest.(check int) "size" 2 (Event_queue.size q);
  Alcotest.(check (option (float 0.001))) "peek" (Some 1.0) (Event_queue.peek_time q)

let test_queue_interleaved () =
  (* Interleave adds and pops and track the size invariant at every step;
     pops must still come out in (time, insertion-seq) order relative to
     what is in the queue at that moment. *)
  let q = Event_queue.empty in
  let q = Event_queue.add q ~time:5.0 "e5" in
  let q = Event_queue.add q ~time:1.0 "e1" in
  Alcotest.(check int) "size after 2 adds" 2 (Event_queue.size q);
  let t, v, q =
    match Event_queue.pop q with Some x -> x | None -> Alcotest.fail "pop 1"
  in
  Alcotest.(check (float 0.001)) "earliest first" 1.0 t;
  Alcotest.(check string) "earliest value" "e1" v;
  Alcotest.(check int) "size after pop" 1 (Event_queue.size q);
  (* An element added after a pop can still overtake older residents. *)
  let q = Event_queue.add q ~time:2.0 "e2" in
  let q = Event_queue.add q ~time:5.0 "e5b" in
  Alcotest.(check int) "size after re-adds" 3 (Event_queue.size q);
  let order =
    let rec drain q acc =
      match Event_queue.pop q with
      | Some (_, v, q) -> drain q (v :: acc)
      | None -> List.rev acc
    in
    drain q []
  in
  (* e5 was inserted before e5b, so the seq tiebreak keeps them in
     insertion order at equal times. *)
  Alcotest.(check (list string)) "pop order" [ "e2"; "e5"; "e5b" ] order;
  Alcotest.(check bool) "drained queue is empty" true
    (Event_queue.is_empty
       (let rec strip q =
          match Event_queue.pop q with Some (_, _, q) -> strip q | None -> q
        in
        strip q))

let prop_queue_interleaved_model =
  (* Random interleaving of add/pop against a sorted-list model: size
     matches at every step and pops agree with the model's minimum
     (stable on ties by insertion order). *)
  QCheck.Test.make ~name:"event queue matches a sorted-list model under interleaved add/pop"
    ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun ops ->
      let step (q, model, seq, ok) op =
        if not ok then (q, model, seq, false)
        else
          match op with
          | Some t_int ->
              let t = float_of_int t_int in
              ( Event_queue.add q ~time:t (seq : int),
                model @ [ (t, seq) ],
                seq + 1,
                Event_queue.size q + 1
                = Event_queue.size (Event_queue.add q ~time:t seq) )
          | None -> (
              let sorted =
                List.stable_sort
                  (fun (t1, _) (t2, _) -> Float.compare t1 t2)
                  model
              in
              match (Event_queue.pop q, sorted) with
              | None, [] -> (q, model, seq, true)
              | Some (t, v, q'), (mt, mv) :: _ ->
                  ( q',
                    List.filter (fun (_, s) -> s <> mv) model,
                    seq,
                    t = mt && v = mv )
              | Some _, [] | None, _ :: _ -> (q, model, seq, false))
      in
      let q, model, _, ok =
        List.fold_left step (Event_queue.empty, [], 0, true) ops
      in
      ok && Event_queue.size q = List.length model)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (pair (float_bound_exclusive 100.0) small_int))
    (fun events ->
      let q =
        List.fold_left
          (fun q (t, v) -> Event_queue.add q ~time:t v)
          Event_queue.empty events
      in
      let rec drain q acc =
        match Event_queue.pop q with
        | Some (t, _, q) -> drain q (t :: acc)
        | None -> List.rev acc
      in
      let times = drain q [] in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | [] | [ _ ] -> true
      in
      List.length times = List.length events && nondecreasing times)

(* ---------------- a ping-pong node for engine tests ---------------- *)

type packet = Ping of int | Pong of int

(* Node 0 pings node 1 every 5 time units with an incrementing round
   number; node 1 pongs back. Outputs record each pong received. *)
let handlers : (int, unit, packet, int) Engine.handlers =
  let on_start me state =
    if me = 0 then (state, [ Engine.Set_timer { id = 1; delay = 5.0 } ])
    else (state, [])
  in
  let on_input _me ~now:_ () state = (state, []) in
  let on_packet me ~now:_ ~src packet state =
    match packet with
    | Ping k when me = 1 ->
        (state, [ Engine.Send { dst = src; packet = Pong k } ])
    | Pong k when me = 0 -> (state, [ Engine.Output k ])
    | Ping _ | Pong _ -> (state, [])
  in
  let on_timer me ~now:_ ~id state =
    if me = 0 && id = 1 then
      ( state + 1,
        [
          Engine.Send { dst = 1; packet = Ping state };
          Engine.Set_timer { id = 1; delay = 5.0 };
        ] )
    else (state, [])
  in
  { Engine.on_start; on_input; on_packet; on_timer }

let run_pingpong ?stop ?(failures = []) ?(until = 52.0) ?(seed = 1) () =
  Engine.run ?stop
    (Engine.default_config ~delta:1.0)
    ~procs:[ 0; 1 ] ~handlers
    ~init:(fun _ -> 0)
    ~inputs:[] ~failures ~until
    ~prng:(Gcs_stdx.Prng.create seed)

let pongs result =
  List.map snd (Timed.actions result.Engine.trace)

let test_pingpong_good () =
  let result = run_pingpong () in
  (* Ten pings in 52 time units; all complete within 2 deltas. *)
  Alcotest.(check (list int)) "all rounds complete in order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (pongs result)

(* [stop] ends the run at the first event after which it holds, counting
   outputs only (a status event is in the trace but is not an output):
   the stopped trace is a prefix of the run to the horizon. *)
let test_stop_ends_a_prefix () =
  let failures = [ (2.0, Fstatus.Link_status (1, 0, Fstatus.Good)) ] in
  let full = run_pingpong ~failures () in
  let stopped =
    run_pingpong ~failures ~stop:(fun ~now:_ ~outputs -> outputs >= 3) ()
  in
  Alcotest.(check (list int)) "three rounds" [ 0; 1; 2 ] (pongs stopped);
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> x = y && prefix a b
    | _ :: _, [] -> false
  in
  Alcotest.(check bool) "prefix of the full trace" true
    (prefix stopped.Engine.trace full.Engine.trace)

let test_bad_link_drops () =
  let failures = [ (12.0, Fstatus.Link_status (0, 1, Fstatus.Bad)) ] in
  let result = run_pingpong ~failures () in
  Alcotest.(check bool) "rounds stop after the cut" true
    (List.length (pongs result) <= 3)

let test_bad_processor_holds_and_replays () =
  (* Node 1 crashes at t=12 and recovers at t=30: held pings are replayed
     on recovery, so no round is lost. *)
  let failures =
    [
      (12.0, Fstatus.Proc_status (1, Fstatus.Bad));
      (30.0, Fstatus.Proc_status (1, Fstatus.Good));
    ]
  in
  let result = run_pingpong ~failures () in
  (* Links are not FIFO (each packet draws its own delay within delta), so
     replayed rounds may overtake each other; none may be lost. *)
  Alcotest.(check (list int)) "all rounds eventually complete"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort Int.compare (pongs result))

let test_ugly_link_loses_some () =
  let failures = [ (0.0, Fstatus.Link_status (0, 1, Fstatus.Ugly)) ] in
  let result = run_pingpong ~failures ~until:200.0 () in
  let n = List.length (pongs result) in
  Alcotest.(check bool)
    (Printf.sprintf "ugly link delivers some but not all (%d)" n)
    true
    (n > 0 && n < 40)

let test_determinism () =
  let r1 = run_pingpong ~seed:7 () and r2 = run_pingpong ~seed:7 () in
  Alcotest.(check (list int)) "same seed, same trace" (pongs r1) (pongs r2)

let test_timer_cancel () =
  (* A node arms a timer then cancels it; the timer must not fire. *)
  let handlers : (int, unit, unit, string) Engine.handlers =
    {
      Engine.on_start =
        (fun _me state ->
          ( state,
            [
              Engine.Set_timer { id = 9; delay = 5.0 };
              Engine.Cancel_timer { id = 9 };
              Engine.Set_timer { id = 10; delay = 7.0 };
            ] ));
      on_input = (fun _ ~now:_ () s -> (s, []));
      on_packet = (fun _ ~now:_ ~src:_ () s -> (s, []));
      on_timer =
        (fun _ ~now:_ ~id s ->
          (s, [ Engine.Output (Printf.sprintf "timer-%d" id) ]));
    }
  in
  let result =
    Engine.run
      (Engine.default_config ~delta:1.0)
      ~procs:[ 0 ] ~handlers
      ~init:(fun _ -> 0)
      ~inputs:[] ~failures:[] ~until:20.0
      ~prng:(Gcs_stdx.Prng.create 1)
  in
  Alcotest.(check (list string)) "only the un-cancelled timer fired"
    [ "timer-10" ]
    (List.map snd (Timed.actions result.Engine.trace))

let test_timer_rearm_supersedes () =
  (* Re-arming a timer id supersedes the earlier deadline. *)
  let handlers : (int, unit, unit, float) Engine.handlers =
    {
      Engine.on_start =
        (fun _me state ->
          ( state,
            [
              Engine.Set_timer { id = 1; delay = 3.0 };
              Engine.Set_timer { id = 1; delay = 8.0 };
            ] ));
      on_input = (fun _ ~now:_ () s -> (s, []));
      on_packet = (fun _ ~now:_ ~src:_ () s -> (s, []));
      on_timer = (fun _ ~now ~id:_ s -> (s, [ Engine.Output now ]));
    }
  in
  let result =
    Engine.run
      (Engine.default_config ~delta:1.0)
      ~procs:[ 0 ] ~handlers
      ~init:(fun _ -> 0)
      ~inputs:[] ~failures:[] ~until:20.0
      ~prng:(Gcs_stdx.Prng.create 1)
  in
  match Timed.actions result.Engine.trace with
  | [ (_, fired_at) ] ->
      Alcotest.(check (float 0.01)) "fired at the re-armed time" 8.0 fired_at
  | other ->
      Alcotest.failf "expected exactly one firing, got %d" (List.length other)

let test_good_link_delay_bound () =
  (* Every delivery in a good network happens within delta of the send. *)
  let result = run_pingpong ~until:100.0 () in
  let times = List.map fst (Timed.actions result.Engine.trace) in
  (* Pings go out at 5,10,...; a pong requires 2 hops, each <= 1.0. *)
  List.iter
    (fun t ->
      let slot = Float.rem t 5.0 in
      Alcotest.(check bool)
        (Printf.sprintf "pong at %.2f within 2 deltas of a ping" t)
        true
        (slot <= 2.0))
    times

let test_fifo_links () =
  (* A burst of packets on one link: with fifo on, arrival order matches
     send order despite jittered delays. *)
  let handlers : (int, unit, int, int) Engine.handlers =
    {
      Engine.on_start =
        (fun me state ->
          if me = 0 then
            (state, List.init 20 (fun k -> Engine.Send { dst = 1; packet = k }))
          else (state, []));
      on_input = (fun _ ~now:_ () s -> (s, []));
      on_packet = (fun _ ~now:_ ~src:_ k s -> (s, [ Engine.Output k ]));
      on_timer = (fun _ ~now:_ ~id:_ s -> (s, []));
    }
  in
  let run fifo seed =
    let config = { (Engine.default_config ~delta:1.0) with Engine.fifo } in
    let result =
      Engine.run config ~procs:[ 0; 1 ] ~handlers
        ~init:(fun _ -> 0)
        ~inputs:[] ~failures:[] ~until:50.0
        ~prng:(Gcs_stdx.Prng.create seed)
    in
    List.map snd (Timed.actions result.Engine.trace)
  in
  let expected = List.init 20 (fun k -> k) in
  List.iter
    (fun seed ->
      Alcotest.(check (list int)) "fifo preserves order" expected
        (run true seed))
    [ 1; 2; 3; 4; 5 ];
  (* Sanity: without fifo some seed reorders (otherwise the option is
     untestable). *)
  Alcotest.(check bool) "jittered links reorder without fifo" true
    (List.exists (fun seed -> run false seed <> expected) [ 1; 2; 3; 4; 5 ])

(* ---------------- fifo_links regressions ---------------- *)

(* A burst of numbered packets 0 -> 1 sent at start; outputs record the
   arrival order at 1. *)
let burst_handlers count : (int, unit, int, int) Engine.handlers =
  {
    Engine.on_start =
      (fun me state ->
        if me = 0 then
          (state, List.init count (fun k -> Engine.Send { dst = 1; packet = k }))
        else (state, []));
    on_input = (fun _ ~now:_ () s -> (s, []));
    on_packet = (fun _ ~now:_ ~src:_ k s -> (s, [ Engine.Output k ]));
    on_timer = (fun _ ~now:_ ~id:_ s -> (s, []));
  }

let run_burst ?(count = 20) ~fifo ~failures ~seed () =
  let config =
    {
      (Engine.default_config ~delta:1.0) with
      Engine.fifo;
      (* ugly links delay but never drop, so order is observable *)
      ugly_drop_prob = 0.0;
    }
  in
  let result =
    Engine.run config ~procs:[ 0; 1 ] ~handlers:(burst_handlers count)
      ~init:(fun _ -> 0)
      ~inputs:[] ~failures ~until:100.0
      ~prng:(Gcs_stdx.Prng.create seed)
  in
  result.Engine.trace

let seeds = [ 1; 2; 3; 4; 5; 6; 7 ]

let test_fifo_ugly_link_order () =
  (* With FIFO on, per-link delivery order matches send order even though
     an ugly link draws an arbitrary extra delay per packet. *)
  let failures = [ (0.0, Fstatus.Link_status (0, 1, Fstatus.Ugly)) ] in
  let expected = List.init 20 (fun k -> k) in
  let arrivals fifo seed =
    List.map snd (Timed.actions (run_burst ~fifo ~failures ~seed ()))
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: fifo holds on ugly link" seed)
        expected (arrivals true seed))
    seeds;
  Alcotest.(check bool) "without fifo the ugly link reorders" true
    (List.exists (fun seed -> arrivals false seed <> expected) seeds)

let test_fifo_ugly_proc_order () =
  (* Same guarantee when the extra delay comes from an ugly DESTINATION
     processor (each held event is re-scheduled once with a random
     delay): fifo mode must preserve arrival order. *)
  let failures = [ (0.0, Fstatus.Proc_status (1, Fstatus.Ugly)) ] in
  let expected = List.init 20 (fun k -> k) in
  let arrivals fifo seed =
    List.map snd (Timed.actions (run_burst ~fifo ~failures ~seed ()))
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: fifo holds at ugly processor" seed)
        expected (arrivals true seed))
    seeds;
  Alcotest.(check bool) "without fifo the ugly processor reorders" true
    (List.exists (fun seed -> arrivals false seed <> expected) seeds)

let test_nofifo_delta_bound () =
  (* With FIFO off on good links, the only guarantee is the delay bound:
     every packet arrives within delta of its send (all sends at t=0). *)
  List.iter
    (fun seed ->
      let trace = run_burst ~fifo:false ~failures:[] ~seed () in
      List.iter
        (fun (t, k) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: packet %d within delta (t=%.3f)" seed k t)
            true
            (t <= 1.0))
        (Timed.actions trace);
      Alcotest.(check int) "nothing lost" 20
        (List.length (Timed.actions trace)))
    seeds

let test_ugly_never_beats_good () =
  (* Regression: the ugly-link delay is sampled from
     [0, ugly_delay_max), which with jitter on could undercut the good
     links' (delta/2, delta] window — a degraded link must never deliver
     faster than a good one. All sends happen at t=0, so every arrival on
     the ugly link must be at or after delta/2. *)
  let failures = [ (0.0, Fstatus.Link_status (0, 1, Fstatus.Ugly)) ] in
  List.iter
    (fun seed ->
      let config =
        {
          (Engine.default_config ~delta:1.0) with
          Engine.jitter = true;
          ugly_drop_prob = 0.0;
        }
      in
      let result =
        Engine.run config ~procs:[ 0; 1 ] ~handlers:(burst_handlers 50)
          ~init:(fun _ -> 0)
          ~inputs:[] ~failures ~until:100.0
          ~prng:(Gcs_stdx.Prng.create seed)
      in
      List.iter
        (fun (t, k) ->
          Alcotest.(check bool)
            (Printf.sprintf
               "seed %d: ugly delivery of %d at t=%.4f not before delta/2" seed
               k t)
            true (t >= 0.5))
        (Timed.actions result.Engine.trace);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: nothing lost" seed)
        50
        (List.length (Timed.actions result.Engine.trace)))
    seeds

let test_engine_metrics_counters () =
  (* The published registry agrees with the result record's counters. *)
  let metrics = Gcs_stdx.Metrics.create () in
  let failures = [ (10.0, Fstatus.Link_status (0, 1, Fstatus.Bad)) ] in
  let result =
    Engine.run ~metrics
      (Engine.default_config ~delta:1.0)
      ~procs:[ 0; 1 ] ~handlers
      ~init:(fun _ -> 0)
      ~inputs:[] ~failures ~until:52.0
      ~prng:(Gcs_stdx.Prng.create 1)
  in
  let c name = Gcs_stdx.Metrics.counter metrics name in
  Alcotest.(check int) "events" result.Engine.events_processed
    (c "engine.events_processed");
  Alcotest.(check int) "sent" result.Engine.packets_sent
    (c "engine.packets_sent");
  Alcotest.(check int) "dropped" result.Engine.packets_dropped
    (c "engine.packets_dropped");
  Alcotest.(check int) "statuses" result.Engine.statuses_applied
    (c "engine.statuses_applied");
  (* packets_sent counts every send attempt; the per-status splits plus
     the drops partition it. *)
  Alcotest.(check int) "status splits partition the sends"
    (c "engine.packets_sent")
    (c "engine.packets_sent.good" + c "engine.packets_sent.self"
    + c "engine.packets_sent.ugly" + c "engine.packets_dropped");
  Alcotest.(check bool) "same registry is returned" true
    (result.Engine.metrics == metrics);
  Alcotest.(check bool) "queue depth high-water recorded" true
    (match Gcs_stdx.Metrics.gauge metrics "engine.queue_depth.max" with
    | Some d -> d >= 1.0
    | None -> false)

let test_statuses_applied_counted () =
  let failures =
    [
      (1.0, Fstatus.Link_status (0, 1, Fstatus.Bad));
      (2.0, Fstatus.Link_status (0, 1, Fstatus.Good));
    ]
  in
  let config = Engine.default_config ~delta:1.0 in
  let result =
    Engine.run config ~procs:[ 0; 1 ] ~handlers:(burst_handlers 0)
      ~init:(fun _ -> 0)
      ~inputs:[] ~failures ~until:10.0
      ~prng:(Gcs_stdx.Prng.create 1)
  in
  Alcotest.(check int) "statuses applied" 2 result.Engine.statuses_applied

let () =
  Alcotest.run "sim"
    [
      ( "event queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_order;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "size and peek" `Quick test_queue_size;
          Alcotest.test_case "interleaved add/pop" `Quick test_queue_interleaved;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
          QCheck_alcotest.to_alcotest prop_queue_interleaved_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "good network ping-pong" `Quick test_pingpong_good;
          Alcotest.test_case "stop ends a prefix" `Quick test_stop_ends_a_prefix;
          Alcotest.test_case "bad link drops" `Quick test_bad_link_drops;
          Alcotest.test_case "bad processor holds and replays" `Quick
            test_bad_processor_holds_and_replays;
          Alcotest.test_case "ugly link loses some" `Quick
            test_ugly_link_loses_some;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
          Alcotest.test_case "timer re-arm supersedes" `Quick
            test_timer_rearm_supersedes;
          Alcotest.test_case "good link delay bound" `Quick
            test_good_link_delay_bound;
          Alcotest.test_case "fifo links option" `Quick test_fifo_links;
        ] );
      ( "fifo regressions",
        [
          Alcotest.test_case "fifo holds on ugly links" `Quick
            test_fifo_ugly_link_order;
          Alcotest.test_case "fifo holds at ugly processors" `Quick
            test_fifo_ugly_proc_order;
          Alcotest.test_case "no fifo: only the delta bound" `Quick
            test_nofifo_delta_bound;
          Alcotest.test_case "statuses applied counter" `Quick
            test_statuses_applied_counted;
        ] );
      ( "fault-model regressions",
        [
          Alcotest.test_case "ugly link never beats a good link" `Quick
            test_ugly_never_beats_good;
          Alcotest.test_case "engine metrics counters" `Quick
            test_engine_metrics_counters;
        ] );
    ]
