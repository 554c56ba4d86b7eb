open Gcs_core
module Prng = Gcs_stdx.Prng
module Metrics = Gcs_stdx.Metrics
module Lock = Gcs_stdx.Lock

type config = {
  poll_interval : float;
  ugly_drop_prob : float;
  ugly_delay_max : float;
}

let default_config =
  { poll_interval = 0.002; ugly_drop_prob = 0.5; ugly_delay_max = 0.05 }

type tamper = { swap_inputs_at : (Proc.t * int) option }

let no_tamper = { swap_inputs_at = None }

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

let run (type state input packet out) ?(config = default_config)
    ?(tamper = no_tamper) ?admit ?metrics
    ?lock_registry ?observe ?stop (codec : packet Iface.codec) ~procs
    ~(handlers : (state, input, packet, out) Iface.handlers) ~init ~inputs
    ~failures ~until ~seed =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let clock = Clock.create () in
  let mailboxes =
    List.fold_left
      (fun m p ->
        Proc.Map.add p
          (Mailbox.create ?registry:lock_registry
             ~name:(Printf.sprintf "bus.mailbox.%d" p)
             ())
          m)
      Proc.Map.empty procs
  in
  let mailbox p = Proc.Map.find p mailboxes in
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
  let record_action out =
    record (Timed.Action out);
    Atomic.incr outputs
  in
  let packets_sent = Atomic.make 0 in
  let packets_dropped = Atomic.make 0 in
  let sent_self = Atomic.make 0 in
  let stopped = Atomic.make false in
  let fail_cell : exn option Atomic.t = Atomic.make None in
  let record_failure e =
    ignore (Atomic.compare_and_set fail_cell None (Some e));
    Atomic.set stopped true
  in
  (* Ugly-link packets in flight: the controller delivers them when due. *)
  let wheel_lock = Lock.create ?registry:lock_registry "bus.wheel" in
  let wheel : (float * Proc.t * input envelope) list ref = ref [] in
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
      | Fstatus.Ugly ->
          if Prng.float prng < config.ugly_drop_prob then
            Atomic.incr packets_dropped
          else begin
            let due =
              Clock.now clock
              +. max config.poll_interval
                   (Prng.float prng *. config.ugly_delay_max)
            in
            Lock.with_lock wheel_lock (fun () ->
                wheel := (due, dst, Packet { src = me; data }) :: !wheel)
          end
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
    let mb = mailbox me in
    let timers : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let state = ref (init me) in
    let events = ref 0 in
    let apply_effect = function
      | Iface.Send { dst; packet } -> send ~prng ~me dst packet
      | Iface.Set_timer { id; delay } ->
          Hashtbl.replace timers id (Clock.now clock +. delay)
      | Iface.Cancel_timer { id } -> Hashtbl.remove timers id
      | Iface.Output out -> record_action out
    in
    let handle f =
      let pre = !state in
      let post, effects = f pre in
      state := post;
      incr events;
      (match observe with Some g -> g me pre post | None -> ());
      List.iter apply_effect effects
    in
    let process_env ~now = function
      | Input input -> handle (fun s -> handlers.Iface.on_input me ~now input s)
      | Packet { src; data } -> (
          match codec.Iface.dec data with
          | Ok packet ->
              handle (fun s -> handlers.Iface.on_packet me ~now ~src packet s)
          | Error error ->
              raise (Undecodable { src; dst = me; bytes = data; error }))
    in
    (* Lexicographic (deadline, id) minimum: the winner is the same
       whatever order the fold visits entries in. *)
    let due_timer now =
      (Hashtbl.fold
         (fun id deadline acc ->
           if deadline > now then acc
           else
             match acc with
             | Some (best_id, best)
               when best < deadline
                    || (Float.equal best deadline && best_id < id) ->
                 acc
             | _ -> Some (id, deadline))
         timers None)
      [@gcs.lint.allow "D1"]
    in
    (try
       handle (fun s -> handlers.Iface.on_start me s);
       let rec loop () =
         if Atomic.get stopped then ()
         else
           let now = Clock.now clock in
           if now >= until then ()
           else
             match with_status (fun t -> Fstatus.proc_status t me) with
             | Fstatus.Bad ->
                 Mailbox.wait mb;
                 loop ()
             | status -> (
                 if Fstatus.equal status Fstatus.Ugly then
                   Clock.sleep (Prng.float prng *. config.ugly_delay_max);
                 match due_timer now with
                 | Some (id, _) ->
                     Hashtbl.remove timers id;
                     handle (fun s -> handlers.Iface.on_timer me ~now ~id s);
                     loop ()
                 | None -> (
                     match Mailbox.pop_opt mb with
                     | Some env ->
                         process_env ~now env;
                         loop ()
                     | None ->
                         Mailbox.wait mb;
                         loop ()))
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
  (* Input-swap tamper: exchange the payloads of one processor's [k]-th
     and [k+1]-th submissions (0-based, in schedule order), keeping the
     times — the transport pretending to reorder a client's stream. *)
  let inputs =
    match tamper.swap_inputs_at with
    | None -> inputs
    | Some (p, k) ->
        let arr = Array.of_list inputs in
        let mine =
          List.filter_map
            (fun (i, q) -> if Proc.equal q p then Some i else None)
            (List.mapi (fun i (_, q, _) -> (i, q)) inputs)
        in
        (match (List.nth_opt mine k, List.nth_opt mine (k + 1)) with
        | Some i, Some j ->
            let ti, pi, vi = arr.(i) and tj, pj, vj = arr.(j) in
            arr.(i) <- (ti, pi, vj);
            arr.(j) <- (tj, pj, vi)
        | _ -> ());
        Array.to_list arr
  in
  let now_inputs, later_inputs = List.partition (fun (t, _, _) -> t <= 0.0) inputs in
  List.iter (fun (_, p, input) -> deliver p (Input input)) now_inputs;
  let pending_inputs = ref later_inputs in
  (* Causal admission: [admit] can hold an input past its scheduled time
     until the outputs counter shows the previous submissions fully
     processed — wall-clock spacing alone cannot serialize submissions
     when the controller domain is descheduled longer than the gap, and
     a collapsed gap lets a timestamp protocol pick a different (valid)
     total order than the reference run. [admit_grace] bounds the hold:
     an input stalled that long past its last sibling is injected
     anyway, so an instrumented (mutant) run that withholds outputs
     degrades to today's time-based pacing instead of wedging. *)
  let injected = ref (List.length now_inputs) in
  let last_inject = ref 0.0 in
  let admit_grace = 0.05 in
  let pending_failures =
    ref (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) failures)
  in
  let statuses_applied = ref 0 in
  let domains = List.map (fun p -> Domain.spawn (fun () -> node p)) procs in
  (* The controller runs in the calling domain: schedule keeping, ugly
     deliveries, the ticker heartbeat, and the stop decision. *)
  let rec control () =
    if Atomic.get stopped then ()
    else begin
      let now = Clock.now clock in
      let rec apply_failures () =
        match !pending_failures with
        | (t, event) :: rest when t <= now ->
            Lock.with_lock status_lock (fun () ->
                tracker := Fstatus.apply !tracker event);
            record (Timed.Status event);
            incr statuses_applied;
            pending_failures := rest;
            apply_failures ()
        | _ -> ()
      in
      apply_failures ();
      let admitted () =
        match admit with
        | None -> true
        | Some f ->
            f ~outputs:(Atomic.get outputs) ~index:!injected
            || now -. !last_inject >= admit_grace
      in
      let rec inject () =
        match !pending_inputs with
        | (t, p, input) :: rest when t <= now && admitted () ->
            deliver p (Input input);
            incr injected;
            last_inject := now;
            pending_inputs := rest;
            inject ()
        | _ -> ()
      in
      inject ();
      let due =
        Lock.with_lock wheel_lock (fun () ->
            let due, still =
              List.partition (fun (t, _, _) -> t <= now) !wheel
            in
            wheel := still;
            due)
      in
      List.iter
        (fun (_, dst, env) -> deliver dst env)
        (List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) due);
      (match stop with
      | Some f when f ~now ~outputs:(Atomic.get outputs) ->
          Atomic.set stopped true
      | _ -> ());
      if now >= until then Atomic.set stopped true;
      if not (Atomic.get stopped) then begin
        Proc.Map.iter (fun _ mb -> Mailbox.tick mb) mailboxes;
        Clock.sleep config.poll_interval;
        control ()
      end
    end
  in
  control ();
  Atomic.set stopped true;
  (* Closing (a state, not an edge) wakes nodes that parked after the stop
     flag was set — a final tick could race and strand them. *)
  Proc.Map.iter (fun _ mb -> Mailbox.close mb) mailboxes;
  let finals = List.map Domain.join domains in
  (match Atomic.get fail_cell with Some e -> raise e | None -> ());
  let final_states =
    List.fold_left (fun m (p, s, _) -> Proc.Map.add p s m) Proc.Map.empty finals
  in
  let events_processed =
    List.fold_left (fun acc (_, _, e) -> acc + e) 0 finals
  in
  let sent = Atomic.get packets_sent in
  let dropped = Atomic.get packets_dropped in
  Metrics.incr ~by:sent metrics "bus.packets_sent";
  Metrics.incr ~by:(Atomic.get sent_self) metrics "bus.packets_sent.self";
  Metrics.incr ~by:dropped metrics "bus.packets_dropped";
  Metrics.incr ~by:events_processed metrics "bus.events_processed";
  Metrics.incr ~by:!statuses_applied metrics "bus.statuses_applied";
  Metrics.set_gauge metrics "bus.wall_s" (Clock.now clock);
  {
    Iface.trace = List.rev !trace_rev;
    final_states;
    events_processed;
    packets_sent = sent;
    packets_dropped = dropped;
    statuses_applied = !statuses_applied;
    metrics;
  }

let backend ?(config = default_config) ?(tamper = no_tamper) ?admit
    ?lock_registry () : Iface.backend =
  (module struct
    let name = "bus"

    let run ?metrics ?observe ?stop codec ~procs ~handlers ~init ~inputs
        ~failures ~until ~seed =
      run ~config ~tamper ?admit ?metrics ?lock_registry ?observe ?stop codec
        ~procs ~handlers ~init ~inputs ~failures ~until ~seed
  end)
