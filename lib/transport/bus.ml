open Gcs_core
module Prng = Gcs_stdx.Prng
module Metrics = Gcs_stdx.Metrics
module Lock = Gcs_stdx.Lock

type config = { ugly_drop_prob : float; ugly_delay_max : float }

let default_config = { ugly_drop_prob = 0.5; ugly_delay_max = 0.05 }

exception
  Undecodable of { src : Proc.t; dst : Proc.t; bytes : string; error : string }

let () =
  Printexc.register_printer (function
    | Undecodable { src; dst; bytes; error } ->
        Some
          (Printf.sprintf "Bus.Undecodable: %d-byte packet %d -> %d: %s"
             (String.length bytes) src dst error)
    | _ -> None)

(* What travels through a mailbox: serialized packets from peers (and
   self), or client inputs injected by the controller. *)
type 'input envelope = Packet of { src : Proc.t; data : string } | Input of 'input

(* Deadlines in (time, tie-break) order: a node's timers break ties on
   their id, the delay wheel on arrival order. *)
module Due = struct
  type t = float * int
  let compare (a, i) (b, j) = match Float.compare a b with 0 -> Int.compare i j | c -> c
end

module Timers = Set.Make (Due)
module Wheel = Map.Make (Due)

let run (type state input packet out) ?(config = default_config) ?admit ?metrics
    ?lock_registry ?observe ?stop (codec : packet Iface.codec) ~procs
    ~(handlers : (state, input, packet, out) Iface.handlers) ~init ~inputs
    ~failures ~until ~seed =
  Clock.with_waker @@ fun waker ->
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let clock = Clock.create () in
  (* Per node: its mailbox, and its earliest timer, published when it
     parks; the controller swaps a due one for [infinity] as it ticks it. *)
  let slot p =
    let name = Printf.sprintf "bus.mailbox.%d" p in
    (Mailbox.create ?registry:lock_registry ~name (), Atomic.make infinity)
  in
  let slots =
    List.fold_left (fun m p -> Proc.Map.add p (slot p) m) Proc.Map.empty procs
  in
  let mailbox p = fst (Proc.Map.find p slots) in
  (* The deadline the controller sleeps toward; [neg_infinity] while it
     is awake, since it rescans every source before sleeping again. *)
  let target = Atomic.make neg_infinity in
  let wake_for due = if due < Atomic.get target then Clock.wake waker in
  (* Failure statuses, read by every sender at send time and by every node
     before handling — exactly the sim's at-send / at-step semantics, but
     the matrix lives behind a lock instead of inside the event loop. All
     bus locks are leaves (never held across another acquisition or a
     blocking call), so an instrumented run observes an edge-free lock
     graph — `gcs lockcheck` fails if that ever regresses. *)
  let status_lock = Lock.create ?registry:lock_registry "bus.status" in
  let tracker = ref Fstatus.initial in
  let with_status f = Lock.with_lock status_lock (fun () -> f !tracker) in
  (* The timed trace. Timestamps are taken *inside* the lock so the trace
     is nondecreasing by construction even under concurrent appends. *)
  let trace_lock = Lock.create ?registry:lock_registry "bus.trace" in
  let trace_rev : out Timed.t ref = ref [] in
  let outputs = Atomic.make 0 in
  let record item =
    Lock.with_lock trace_lock (fun () ->
        let t = Clock.now clock in
        trace_rev := { Timed.time = t; item } :: !trace_rev)
  in
  (* Set while a due submission waits on [admit], the one thing the
     controller waits for that has no deadline: only then does an output
     wake it. *)
  let holding = Atomic.make false in
  let record_action out =
    record (Timed.Action out);
    Atomic.incr outputs;
    if Atomic.get holding then Clock.wake waker
  in
  let packets_sent = Atomic.make 0 in
  let packets_dropped = Atomic.make 0 in
  let sent_self = Atomic.make 0 in
  let stopped = Atomic.make false in
  let halt () = if Atomic.compare_and_set stopped false true then Clock.wake waker in
  (* Asked after every event, as on the simulator, and at every
     controller wake; whoever first sees it hold ends the run. *)
  let stop_now now =
    match stop with Some f -> f ~now ~outputs:(Atomic.get outputs) | None -> false
  in
  let fail_cell : exn option Atomic.t = Atomic.make None in
  let record_failure e =
    ignore (Atomic.compare_and_set fail_cell None (Some e));
    halt ()
  in
  (* Ugly-link packets in flight, in due order. *)
  let wheel_lock = Lock.create ?registry:lock_registry "bus.wheel" in
  let wheel : (Proc.t * input envelope) Wheel.t ref = ref Wheel.empty in
  let wheel_seq = ref 0 in
  let deliver dst env = Mailbox.push (mailbox dst) env in
  let send ~prng ~me dst packet =
    let data = codec.Iface.enc packet in
    Atomic.incr packets_sent;
    if Proc.equal dst me then begin
      (* Self-sends bypass the link matrix, as in the simulator. *)
      Atomic.incr sent_self;
      deliver dst (Packet { src = me; data })
    end
    else
      match with_status (fun t -> Fstatus.link_status t me dst) with
      | Fstatus.Good -> deliver dst (Packet { src = me; data })
      | Fstatus.Bad -> Atomic.incr packets_dropped
      | Fstatus.Ugly when Prng.float prng < config.ugly_drop_prob ->
          Atomic.incr packets_dropped
      | Fstatus.Ugly ->
          let due = Clock.now clock +. (Prng.float prng *. config.ugly_delay_max) in
          Lock.with_lock wheel_lock (fun () ->
              incr wheel_seq;
              wheel :=
                Wheel.add (due, !wheel_seq) (dst, Packet { src = me; data })
                  !wheel);
          wake_for due
  in
  let observe =
    match observe with
    | None -> None
    | Some f ->
        let lock = Lock.create ?registry:lock_registry "bus.observe" in
        Some (fun p pre post -> Lock.with_lock lock (fun () -> f p pre post))
  in
  (* One domain per processor: fire due timers, drain the mailbox, park on
     it otherwise. A Bad processor parks without handling (its events are
     held, replayed on recovery); an Ugly one stalls a random beat before
     each step — the paper's "nondeterministic speed". *)
  let node me =
    let prng = Prng.create (seed + (7919 * (me + 1))) in
    let mb, my_timer = Proc.Map.find me slots in
    let timers = ref Timers.empty in
    let disarm id = timers := Timers.filter (fun (_, i) -> i <> id) !timers in
    let state = ref (init me) in
    let events = ref 0 in
    let apply_effect = function
      | Iface.Send { dst; packet } -> send ~prng ~me dst packet
      | Iface.Set_timer { id; delay } ->
          disarm id;
          timers := Timers.add (Clock.now clock +. delay, id) !timers
      | Iface.Cancel_timer { id } -> disarm id
      | Iface.Output out -> record_action out
    in
    let handle ~now f =
      let pre = !state in
      let post, effects = f pre in
      state := post;
      incr events;
      (match observe with Some g -> g me pre post | None -> ());
      List.iter apply_effect effects;
      if stop_now now then halt ()
    in
    let process_env ~now env =
      handle ~now (fun s ->
          match env with
          | Input input -> handlers.Iface.on_input me ~now input s
          | Packet { src; data } -> (
              match codec.Iface.dec data with
              | Ok packet -> handlers.Iface.on_packet me ~now ~src packet s
              | Error error ->
                  raise (Undecodable { src; dst = me; bytes = data; error })))
    in
    let park version next =
      Atomic.set my_timer next;
      wake_for next;
      Mailbox.wait mb version
    in
    (try
       handle ~now:(Clock.now clock) (fun s -> handlers.Iface.on_start me s);
       let rec loop () =
         (* Read first: a tick or push after this point ends the park
            below instead of being lost. *)
         let version = Mailbox.version mb in
         let now = Clock.now clock in
         if not (Atomic.get stopped || now >= until) then begin
           (match with_status (fun t -> Fstatus.proc_status t me) with
           | Fstatus.Bad -> park version infinity
           | status -> (
               if Fstatus.equal status Fstatus.Ugly then
                 Clock.sleep (Prng.float prng *. config.ugly_delay_max);
               match Timers.min_elt_opt !timers with
               | Some (at, id) when at <= now ->
                   disarm id;
                   handle ~now (fun s -> handlers.Iface.on_timer me ~now ~id s)
               | next -> (
                   match Mailbox.pop_opt mb with
                   | Some env -> process_env ~now env
                   | None ->
                       park version (Option.fold ~none:infinity ~some:fst next))));
           loop ()
         end
       in
       loop ()
     with e -> record_failure e)
    [@gcs.lint.allow "P2" (* captured for re-raise after the joins *)];
    (me, !state, !events)
  in
  (* Inputs at or before time zero are in the mailboxes before any domain
     exists: every node handles its whole initial workload ahead of any
     packet, on either backend. *)
  let inputs =
    List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) inputs
  in
  let now_inputs, later_inputs = List.partition (fun (t, _, _) -> t <= 0.0) inputs in
  List.iter (fun (_, p, input) -> deliver p (Input input)) now_inputs;
  let pending_inputs = ref later_inputs in
  let injected = ref (List.length now_inputs) in
  let statuses_applied = ref 0 in
  let controller_wakes = ref 0 in
  let pending_failures =
    ref (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) failures)
  in
  let domains = List.map (fun p -> Domain.spawn (fun () -> node p)) procs in
  (* The controller runs in the calling domain. Each wake it applies due
     failure events (ticking every mailbox, so a parked Bad node sees its
     recovery), injects due submissions, delivers due ugly packets and
     ticks nodes whose timer is due; then it sleeps until the earliest
     remaining deadline or [until], or until a node writes the waker.
     [admit] (causal admission, see the .mli) may hold a due input: it
     raises [holding] and is asked again, so an output recorded before
     the flag was visible is not missed. *)
  let rec apply_failures now applied =
    match !pending_failures with
    | (t, event) :: rest when t <= now ->
        Lock.with_lock status_lock (fun () -> tracker := Fstatus.apply !tracker event);
        record (Timed.Status event);
        incr statuses_applied;
        pending_failures := rest;
        apply_failures now true
    | _ -> if applied then Proc.Map.iter (fun _ (mb, _) -> Mailbox.tick mb) slots
  in
  let admitted () =
    match admit with
    | None -> true
    | Some f -> f ~outputs:(Atomic.get outputs) ~index:!injected
  in
  let rec inject now =
    match !pending_inputs with
    | (t, p, input) :: rest when t <= now && admitted () ->
        Atomic.set holding false;
        deliver p (Input input);
        incr injected;
        pending_inputs := rest;
        inject now
    | (t, _, _) :: _ when t <= now && not (Atomic.get holding) ->
        Atomic.set holding true;
        inject now
    | _ -> ()
  in
  let deliver_wheel now =
    Lock.with_lock wheel_lock (fun () ->
        let due, _, later = Wheel.split (now, max_int) !wheel in
        wheel := later;
        due)
    |> Wheel.iter (fun _ (dst, env) -> deliver dst env)
  in
  let tick_due now =
    Proc.Map.iter
      (fun _ (mb, at) ->
        let t = Atomic.get at in
        if t <= now && Atomic.compare_and_set at t infinity then Mailbox.tick mb)
      slots
  in
  let earliest () =
    let input = match !pending_inputs with (t, _, _) :: _ -> t | [] -> until in
    let failure = match !pending_failures with (t, _) :: _ -> t | [] -> until in
    let packet = Lock.with_lock wheel_lock (fun () -> Wheel.min_binding_opt !wheel) in
    List.fold_left Float.min until
      [ (if Atomic.get holding then until else input); failure;
        Option.fold ~none:until ~some:(fun ((t, _), _) -> t) packet ]
    |> Proc.Map.fold (fun _ (_, at) d -> Float.min d (Atomic.get at)) slots
  in
  let rec control () =
    let now = Clock.now clock in
    apply_failures now false;
    inject now;
    deliver_wheel now;
    tick_due now;
    if now >= until || stop_now now then halt ();
    if not (Atomic.get stopped) then begin
      (* Publish the target, then look again: a deadline published
         before its publisher could see the target shows up here. *)
      let due = earliest () in
      Atomic.set target due;
      if earliest () >= due && due > Clock.now clock then begin
        Clock.wait waker (due -. Clock.now clock);
        incr controller_wakes
      end;
      Atomic.set target neg_infinity;
      if not (Atomic.get stopped) then control ()
    end
  in
  (* Closing (a state, not an edge) wakes nodes that parked after the stop
     flag was set — a final tick could race and strand them. The nodes
     are joined even if the controller raises: none may write the waker
     once [with_waker] closes it. *)
  let finals = ref [] in
  Fun.protect control ~finally:(fun () ->
      Atomic.set stopped true;
      Proc.Map.iter (fun _ (mb, _) -> Mailbox.close mb) slots;
      finals := List.map Domain.join domains);
  (match Atomic.get fail_cell with Some e -> raise e | None -> ());
  let events_processed = List.fold_left (fun acc (_, _, e) -> acc + e) 0 !finals in
  let sent = Atomic.get packets_sent and dropped = Atomic.get packets_dropped in
  Metrics.incr ~by:sent metrics "bus.packets_sent";
  Metrics.incr ~by:(Atomic.get sent_self) metrics "bus.packets_sent.self";
  Metrics.incr ~by:dropped metrics "bus.packets_dropped";
  Metrics.incr ~by:events_processed metrics "bus.events_processed";
  Metrics.incr ~by:!statuses_applied metrics "bus.statuses_applied";
  Metrics.incr ~by:!controller_wakes metrics "bus.controller_wakes";
  Metrics.set_gauge metrics "bus.wall_s" (Clock.now clock);
  {
    Iface.trace = List.rev !trace_rev;
    final_states =
      List.fold_left (fun m (p, s, _) -> Proc.Map.add p s m) Proc.Map.empty !finals;
    events_processed;
    packets_sent = sent;
    packets_dropped = dropped;
    statuses_applied = !statuses_applied;
    metrics;
  }

let backend ?(config = default_config) ?admit ?lock_registry () : Iface.backend =
  (module struct
    let name = "bus"

    let run ?metrics ?observe ?stop codec ~procs ~handlers ~init ~inputs
        ~failures ~until ~seed =
      run ~config ?admit ?metrics ?lock_registry ?observe ?stop codec
        ~procs ~handlers ~init ~inputs ~failures ~until ~seed
  end)
