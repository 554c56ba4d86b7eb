(* Transport contract tests.

   One automaton, one set of assertions, every backend: the guarantees a
   {!Gcs_transport.Iface.BACKEND} must provide regardless of how it moves
   messages — delivery to live members only (with replay on recovery),
   nothing delivered after the horizon, per-sender-pair FIFO, and a
   monotone clock. The suite is a functor in spirit: [contract_tests]
   takes a profile and is instantiated for the simulator and the bus, so
   a third backend gets its conformance battery by adding one profile. *)

open Gcs_core
module I = Gcs_transport.Iface

type input = { dst : Proc.t; payload : string }
type out = { at : Proc.t; src : Proc.t; payload : string }

type profile = {
  label : string;
  backend : I.backend;
  dt : float;  (** one time unit in the backend's own seconds *)
  residual : float;
      (** slack past [until] for a handler already in flight at close *)
}

let sim_profile =
  {
    label = "sim";
    backend =
      Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta:1.0);
    dt = 1.0;
    residual = 1e-9;
  }

let bus_profile =
  {
    label = "bus";
    backend = Gcs_transport.Bus.backend ();
    dt = 0.02;
    residual = 0.5;
  }

let procs = Proc.all ~n:3

(* Relay automaton: an input is a request to send its payload to [dst];
   a received packet is recorded in the trace. State is unit — the trace
   is the whole observation. *)
let relay_handlers =
  {
    I.on_start = (fun _ s -> (s, []));
    on_input =
      (fun _me ~now:_ { dst; payload } s -> (s, [ I.Send { dst; packet = payload } ]));
    on_packet =
      (fun me ~now:_ ~src payload s -> (s, [ I.Output { at = me; src; payload } ]));
    on_timer = (fun _ ~now:_ ~id:_ s -> (s, []));
  }

(* Metronome automaton: every node re-arms a timer forever and records a
   tick per firing — traffic that does not stop by itself, so the horizon
   has to stop it. *)
let metronome_handlers ~dt =
  let tick me = I.Output { at = me; src = me; payload = "tick" } in
  {
    I.on_start = (fun _me s -> (s, [ I.Set_timer { id = 1; delay = dt } ]));
    on_input = (fun _ ~now:_ (_ : input) s -> (s, []));
    on_packet = (fun _ ~now:_ ~src:_ (_ : string) s -> (s, []));
    on_timer =
      (fun me ~now:_ ~id:_ s -> (s, [ tick me; I.Set_timer { id = 1; delay = dt } ]));
  }

let run profile ?(handlers = relay_handlers) ~inputs ~failures ~until () =
  let (module B : I.BACKEND) = profile.backend in
  B.run I.string_codec ~procs ~handlers
    ~init:(fun _ -> ())
    ~inputs ~failures ~until ~seed:42

(* Payloads received at [p], in trace (= handling) order. *)
let received_at p trace =
  List.filter_map
    (fun (_, o) -> if o.at = p then Some o.payload else None)
    (Timed.actions trace)

let outputs_at p trace =
  List.filter (fun (_, o) -> o.at = p) (Timed.actions trace)

(* 1. Per-sender-pair FIFO: messages from 0 to 1, spaced a full dt apart
   (the simulator's good-link jitter can reorder only within dt/2), must
   arrive in send order and without loss. *)
let test_fifo profile () =
  let count = 16 in
  let inputs =
    List.init count (fun k ->
        (float_of_int (k + 1) *. profile.dt, 0, { dst = 1; payload = Printf.sprintf "m%02d" k }))
  in
  let until = float_of_int (count + 6) *. profile.dt in
  let result = run profile ~inputs ~failures:[] ~until () in
  let expected = List.init count (Printf.sprintf "m%02d") in
  Alcotest.(check (list string))
    "delivered in send order" expected
    (received_at 1 result.I.trace)

(* 2. Live members only: a crashed processor handles nothing while down;
   what reached its mailbox replays after recovery, not before. A healthy
   bystander is unaffected throughout. *)
let test_live_members profile () =
  let d = profile.dt in
  let recover_t = 8.0 *. d in
  let inputs =
    [
      (2.0 *. d, 0, { dst = 1; payload = "held" });
      (2.0 *. d, 0, { dst = 2; payload = "free" });
    ]
  in
  let failures =
    [
      (0.0, Fstatus.Proc_status (1, Fstatus.Bad));
      (recover_t, Fstatus.Proc_status (1, Fstatus.Good));
    ]
  in
  let until = 16.0 *. d in
  let result = run profile ~inputs ~failures ~until () in
  let trace = result.I.trace in
  Alcotest.(check (list string)) "bystander unaffected" [ "free" ] (received_at 2 trace);
  Alcotest.(check (list string)) "held message replays" [ "held" ] (received_at 1 trace);
  List.iter
    (fun (t, _) ->
      if t < recover_t -. profile.residual then
        Alcotest.failf "delivery at %.3f while processor 1 was down (recovery %.3f)"
          t recover_t)
    (outputs_at 1 trace)

(* 3. A bad link drops at send time; other links from the same sender
   keep working. *)
let test_bad_link profile () =
  let d = profile.dt in
  let inputs =
    [
      (2.0 *. d, 0, { dst = 1; payload = "lost" });
      (3.0 *. d, 0, { dst = 2; payload = "kept" });
    ]
  in
  let failures = [ (0.0, Fstatus.Link_status (0, 1, Fstatus.Bad)) ] in
  let result = run profile ~inputs ~failures ~until:(12.0 *. d) () in
  Alcotest.(check (list string)) "bad link delivers nothing" []
    (received_at 1 result.I.trace);
  Alcotest.(check (list string)) "good link unaffected" [ "kept" ]
    (received_at 2 result.I.trace)

(* 4. Close is close, and the clock is monotone: under self-sustaining
   timer traffic, no trace event is stamped past the horizon (plus one
   in-flight handler's residual) and timestamps never go backwards. *)
let test_close_and_clock profile () =
  let until = 20.0 *. profile.dt in
  let result =
    run profile ~handlers:(metronome_handlers ~dt:profile.dt) ~inputs:[]
      ~failures:[] ~until ()
  in
  let trace = result.I.trace in
  let actions = Timed.actions trace in
  Alcotest.(check bool) "traffic flowed" true (List.length actions >= 3);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d ticked" p)
        true
        (outputs_at p trace <> []))
    procs;
  List.iter
    (fun (t, _) ->
      if t > until +. profile.residual then
        Alcotest.failf "event stamped %.4f past horizon %.4f" t until)
    actions;
  Alcotest.(check bool) "timestamps nondecreasing" true
    (Timed.is_time_ordered trace)

let contract_tests profile =
  let case name f = Alcotest.test_case name `Quick (f profile) in
  ( profile.label,
    [
      case "per-sender-pair FIFO" test_fifo;
      case "live members only, replay on recovery" test_live_members;
      case "bad link drops at send" test_bad_link;
      case "close and clock monotonicity" test_close_and_clock;
    ] )

(* ------------------------------------------------------------------ *)
(* Mailbox close/recv semantics. The hazard: a blocking [recv] checks
   emptiness, then parks on the condition — if closed were an *edge*
   (a broadcast only), a close landing between the check and the park
   would be missed and the receiver would hang forever. Closed is a
   state checked under the mailbox lock, so every schedule must
   terminate; these tests run the race many times across domains and
   would hang (and time out) on a regression, which is the assertion. *)

module Mailbox = Gcs_transport.Mailbox

let test_recv_drains_then_none () =
  let mb = Mailbox.create () in
  Mailbox.push mb 1;
  Mailbox.push mb 2;
  Mailbox.close mb;
  let r1 = Mailbox.recv mb in
  let r2 = Mailbox.recv mb in
  let r3 = Mailbox.recv mb in
  let r4 = Mailbox.recv mb in
  Alcotest.(check (list (option int)))
    "push-then-close drains in order, then None"
    [ Some 1; Some 2; None; None ]
    [ r1; r2; r3; r4 ]

let test_recv_closed_empty_returns () =
  let mb : int Mailbox.t = Mailbox.create () in
  Mailbox.close mb;
  Alcotest.(check (option int)) "closed+empty is None" None (Mailbox.recv mb)

let test_recv_blocked_during_close_returns () =
  (* Many rounds: each parks a receiver on an empty mailbox, then closes
     from another domain. A missed wakeup hangs the join. *)
  for _ = 1 to 100 do
    let mb : int Mailbox.t = Mailbox.create () in
    let receiver = Domain.spawn (fun () -> Mailbox.recv mb) in
    Domain.cpu_relax ();
    let closer = Domain.spawn (fun () -> Mailbox.close mb) in
    let got = Domain.join receiver in
    Domain.join closer;
    Alcotest.(check (option int)) "blocked recv returns None" None got
  done

let test_recv_race_push_close () =
  (* Push and close race a parked receiver: it must get either the
     element or None — and always return. *)
  let some = ref 0 and none = ref 0 in
  for _ = 1 to 100 do
    let mb : int Mailbox.t = Mailbox.create () in
    let receiver = Domain.spawn (fun () -> Mailbox.recv mb) in
    let pusher =
      Domain.spawn (fun () ->
          Mailbox.push mb 7;
          Mailbox.close mb)
    in
    (match Domain.join receiver with
    | Some v ->
        Alcotest.(check int) "the pushed element" 7 v;
        incr some
    | None -> incr none);
    Domain.join pusher
  done;
  (* close happens strictly after push here, so a receiver that misses
     the element can only be one that returned None before the push —
     impossible: recv blocks until a wake, and both wakes leave it
     either an element or the closed state. *)
  Alcotest.(check int) "every element received" 100 !some

let mailbox_tests =
  ( "mailbox close/recv",
    [
      Alcotest.test_case "push-then-close drains, then None" `Quick
        test_recv_drains_then_none;
      Alcotest.test_case "closed+empty returns None" `Quick
        test_recv_closed_empty_returns;
      Alcotest.test_case "recv blocked during close returns" `Quick
        test_recv_blocked_during_close_returns;
      Alcotest.test_case "recv racing push+close never hangs" `Quick
        test_recv_race_push_close;
    ] )

(* ------------------------------------------------------------------ *)
(* A frame the codec rejects ends the bus run with a typed verdict naming
   the link and carrying the frame, not an anonymous [Failure]. *)

let test_undecodable () =
  let codec =
    {
      I.enc = Fun.id;
      dec =
        (fun s -> if String.equal s "poison" then Error "poisoned frame" else Ok s);
    }
  in
  let inputs =
    [
      (0.01, 0, { dst = 1; payload = "fine" });
      (0.02, 0, { dst = 1; payload = "poison" });
    ]
  in
  match
    Gcs_transport.Bus.run codec ~procs ~handlers:relay_handlers
      ~init:(fun _ -> ())
      ~inputs ~failures:[] ~until:5.0 ~seed:42
  with
  | _ -> Alcotest.fail "the run ended without a verdict"
  | exception Gcs_transport.Bus.Undecodable { src; dst; bytes; error } ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check int) "dst" 1 dst;
      Alcotest.(check string) "bytes" "poison" bytes;
      Alcotest.(check string) "error" "poisoned frame" error

(* ------------------------------------------------------------------ *)
(* The bus controller sleeps until its earliest deadline instead of
   polling: an idle run costs O(1) wakes, a timer armed while it sleeps
   toward a far horizon still fires on time, a recovery reaches a parked
   node without a tick, and the self-pipe is closed after every run. *)

module Bus = Gcs_transport.Bus

let bus_run ?stop ?(procs = procs) ?(handlers = relay_handlers) ~inputs
    ~failures ~until () =
  Bus.run ?stop I.string_codec ~procs ~handlers
    ~init:(fun _ -> ())
    ~inputs ~failures ~until ~seed:42

let wakes result =
  Gcs_stdx.Metrics.counter result.I.metrics "bus.controller_wakes"

let wall result =
  Option.value ~default:nan
    (Gcs_stdx.Metrics.gauge result.I.metrics "bus.wall_s")

let test_idle_wakes () =
  let result = bus_run ~inputs:[] ~failures:[] ~until:0.5 () in
  if wakes result > 3 then
    Alcotest.failf "an idle 0.5 s run woke the controller %d times"
      (wakes result)

(* Node 0 relays an input to node 1 while the controller sleeps toward
   a 5 s horizon; node 1 arms a 10 ms timer whose firing is the only
   output. The run ends on that output, so it must fire near 10 ms. *)
let test_timer_while_asleep () =
  let handlers =
    {
      relay_handlers with
      I.on_packet =
        (fun _ ~now:_ ~src:_ _ s ->
          (s, [ I.Set_timer { id = 1; delay = 0.01 } ]));
      on_timer =
        (fun me ~now:_ ~id:_ s ->
          (s, [ I.Output { at = me; src = me; payload = "t" } ]));
    }
  in
  let result =
    bus_run ~handlers
      ~stop:(fun ~now:_ ~outputs -> outputs >= 1)
      ~inputs:[ (0.02, 0, { dst = 1; payload = "go" }) ]
      ~failures:[] ~until:5.0 ()
  in
  Alcotest.(check (list string)) "the timer fired" [ "t" ]
    (received_at 1 result.I.trace);
  if wall result > 1.0 then
    Alcotest.failf "a 10 ms timer ended the run only after %.3f s" (wall result)

(* Node 1 is Bad from 0 to 20 ms; its input arrives at 5 ms and waits in
   its mailbox. The recovery is the last scheduled event, so nothing but
   the controller's wake on the status change can make it handle the
   input before the 5 s horizon. *)
let test_recovery_wakes_parked_node () =
  let result =
    bus_run
      ~stop:(fun ~now:_ ~outputs -> outputs >= 1)
      ~inputs:[ (0.005, 0, { dst = 1; payload = "held" }) ]
      ~failures:
        [
          (0.0, Fstatus.Proc_status (1, Fstatus.Bad));
          (0.02, Fstatus.Proc_status (1, Fstatus.Good));
        ]
      ~until:5.0 ()
  in
  match outputs_at 1 result.I.trace with
  | [ (t, _) ] ->
      if t < 0.02 then Alcotest.failf "handled at %.4f while Bad" t;
      if wall result > 1.0 then
        Alcotest.failf "recovery reached the node only after %.3f s"
          (wall result)
  | l -> Alcotest.failf "%d deliveries at node 1, expected 1" (List.length l)

(* 1,000 back-to-back runs, every tenth ending in a handler exception:
   the controller's self-pipe is closed either way. *)
let test_no_fd_leak () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let boom =
      { relay_handlers with I.on_start = (fun _ _ -> failwith "boom") }
    in
    let before = fds () in
    for i = 1 to 1000 do
      let handlers = if i mod 10 = 0 then boom else relay_handlers in
      match
        bus_run ~procs:[ 0 ] ~handlers
          ~stop:(fun ~now:_ ~outputs:_ -> true)
          ~inputs:[] ~failures:[] ~until:5.0 ()
      with
      | _ -> ()
      | exception Failure _ -> ()
    done;
    Alcotest.(check int) "open descriptors" before (fds ())
  end

let () =
  Alcotest.run "transport contract"
    [
      contract_tests sim_profile;
      contract_tests bus_profile;
      mailbox_tests;
      ( "bad packets",
        [
          Alcotest.test_case "undecodable frame is a typed verdict" `Quick
            test_undecodable;
        ] );
      ( "bus controller",
        [
          Alcotest.test_case "an idle run wakes O(1) times" `Quick
            test_idle_wakes;
          Alcotest.test_case "a timer armed while asleep fires" `Quick
            test_timer_while_asleep;
          Alcotest.test_case "recovery wakes a parked node" `Quick
            test_recovery_wakes_parked_node;
          Alcotest.test_case "1000 runs leak no descriptor" `Quick
            test_no_fd_leak;
        ] );
    ]
