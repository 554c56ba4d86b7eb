open Gcs_core

type config = {
  delta : float;
  jitter : bool;
  fifo : bool;
  ugly_drop_prob : float;
  ugly_delay_max : float;
}

let default_config ~delta =
  {
    delta;
    jitter = true;
    fifo = false;
    ugly_drop_prob = 0.5;
    ugly_delay_max = delta *. 10.0;
  }

(* The handler-facing types are owned by Gcs_transport.Iface (the
   pluggable-transport seam) and re-exported here with equations, so
   pre-transport code written against Engine keeps compiling unchanged
   and handlers flow between backends without conversion. *)

type ('packet, 'out) effect = ('packet, 'out) Gcs_transport.Iface.effect =
  | Send of { dst : Proc.t; packet : 'packet }
  | Set_timer of { id : int; delay : float }
  | Cancel_timer of { id : int }
  | Output of 'out

type ('state, 'input, 'packet, 'out) handlers =
      ('state, 'input, 'packet, 'out) Gcs_transport.Iface.handlers = {
  on_start :
    Proc.t -> 'state -> 'state * ('packet, 'out) effect list;
  on_input :
    Proc.t -> now:float -> 'input -> 'state -> 'state * ('packet, 'out) effect list;
  on_packet :
    Proc.t ->
    now:float ->
    src:Proc.t ->
    'packet ->
    'state ->
    'state * ('packet, 'out) effect list;
  on_timer :
    Proc.t -> now:float -> id:int -> 'state -> 'state * ('packet, 'out) effect list;
}

type ('state, 'out) result = ('state, 'out) Gcs_transport.Iface.result = {
  trace : 'out Timed.t;
  final_states : 'state Proc.Map.t;
  events_processed : int;
  packets_sent : int;
  packets_dropped : int;
  statuses_applied : int;
  metrics : Gcs_stdx.Metrics.t;
}

type ('input, 'packet) payload =
  | Deliver of { src : Proc.t; packet : 'packet }
  | Timer of { id : int; epoch : int }
  | Input of 'input
  | Status of Fstatus.event

type ('input, 'packet) ev = {
  target : Proc.t option;  (* None for global status events *)
  payload : ('input, 'packet) payload;
  delayed_once : bool;
}

type ('state, 'input, 'packet, 'out) sim = {
  mutable queue : ('input, 'packet) ev Event_queue.t;
  mutable states : 'state Proc.Map.t;
  mutable tracker : Fstatus.tracker;
  mutable held : (('input, 'packet) ev list) Proc.Map.t;
      (* events addressed to a bad processor, newest first *)
  mutable timer_epochs : int Proc.Map.t Proc.Map.t;
      (* proc -> timer id -> epoch; reusing Proc.Map for int keys *)
  mutable last_delivery : float Proc.Map.t Proc.Map.t;
      (* src -> dst -> latest scheduled delivery time (fifo mode) *)
  mutable ugly_floor : float Proc.Map.t;
      (* proc -> latest re-scheduled handling time while ugly (fifo mode) *)
  mutable trace_rev : 'out Timed.event list;
  mutable events_processed : int;
  mutable packets_sent : int;
  mutable packets_dropped : int;
  mutable statuses_applied : int;
  (* Per-status breakdowns for the metrics registry. Kept as plain
     mutable ints — no hashtable lookups on the per-event hot path — and
     published into [metrics] once at the end of the run. *)
  mutable sent_good : int;
  mutable sent_self : int;
  mutable sent_ugly : int;
  mutable dropped_bad : int;
  mutable dropped_ugly : int;
  mutable events_held : int;
  mutable events_delayed_ugly : int;
  mutable max_queue_depth : int;
  config : config;
  prng : Gcs_stdx.Prng.t;
  handlers : ('state, 'input, 'packet, 'out) handlers;
  observe : (Proc.t -> 'state -> 'state -> unit) option;
      (* called with (pre, post) after every handler application; used by
         the fuzzer to derive abstract-state coverage without copying the
         whole state history into the trace *)
}

let timer_epoch sim p id =
  match Proc.Map.find_opt p sim.timer_epochs with
  | None -> 0
  | Some m -> ( match Proc.Map.find_opt id m with Some e -> e | None -> 0)

let bump_timer_epoch sim p id =
  let m =
    match Proc.Map.find_opt p sim.timer_epochs with
    | Some m -> m
    | None -> Proc.Map.empty
  in
  let e = timer_epoch sim p id + 1 in
  sim.timer_epochs <- Proc.Map.add p (Proc.Map.add id e m) sim.timer_epochs;
  e

let self_delay config = config.delta /. 100.0

let link_delay sim =
  if sim.config.jitter then
    (sim.config.delta /. 2.0)
    +. (Gcs_stdx.Prng.float sim.prng *. sim.config.delta /. 2.0)
  else sim.config.delta

(* The fastest a good link can deliver: δ/2 with jitter, exactly δ
   without. Ugly-link delays are floored here — an ugly link may delay or
   drop, but it must never deliver FASTER than a good link, or "degrading"
   a link would improve its latency for small sampled delays. *)
let good_link_min config = if config.jitter then config.delta /. 2.0 else config.delta

let schedule sim ~time ev = sim.queue <- Event_queue.add sim.queue ~time ev

let send_packet sim ~now ~src ~dst packet =
  sim.packets_sent <- sim.packets_sent + 1;
  let deliver delay =
    let time = now +. delay in
    let time =
      if not sim.config.fifo then time
      else begin
        (* FIFO links: never schedule a delivery before an earlier packet
           on the same directed link. *)
        let per_src =
          match Proc.Map.find_opt src sim.last_delivery with
          | Some m -> m
          | None -> Proc.Map.empty
        in
        let floor =
          match Proc.Map.find_opt dst per_src with
          | Some t -> t +. 1e-9
          | None -> 0.0
        in
        let time = max time floor in
        sim.last_delivery <-
          Proc.Map.add src (Proc.Map.add dst time per_src) sim.last_delivery;
        time
      end
    in
    schedule sim ~time
      { target = Some dst; payload = Deliver { src; packet }; delayed_once = false }
  in
  if Proc.equal src dst then begin
    sim.sent_self <- sim.sent_self + 1;
    deliver (self_delay sim.config)
  end
  else
    match Fstatus.link_status sim.tracker src dst with
    | Fstatus.Good ->
        sim.sent_good <- sim.sent_good + 1;
        deliver (link_delay sim)
    | Fstatus.Bad ->
        sim.packets_dropped <- sim.packets_dropped + 1;
        sim.dropped_bad <- sim.dropped_bad + 1
    | Fstatus.Ugly ->
        if Gcs_stdx.Prng.float sim.prng < sim.config.ugly_drop_prob then begin
          sim.packets_dropped <- sim.packets_dropped + 1;
          sim.dropped_ugly <- sim.dropped_ugly + 1
        end
        else begin
          sim.sent_ugly <- sim.sent_ugly + 1;
          deliver
            (max (good_link_min sim.config)
               (Gcs_stdx.Prng.float sim.prng *. sim.config.ugly_delay_max))
        end

let apply_effects sim ~now ~proc effects =
  List.iter
    (fun effect ->
      match effect with
      | Send { dst; packet } -> send_packet sim ~now ~src:proc ~dst packet
      | Set_timer { id; delay } ->
          let epoch = bump_timer_epoch sim proc id in
          schedule sim ~time:(now +. delay)
            { target = Some proc; payload = Timer { id; epoch }; delayed_once = false }
      | Cancel_timer { id } -> ignore (bump_timer_epoch sim proc id)
      | Output out -> sim.trace_rev <- Timed.action now out :: sim.trace_rev)
    effects

let handle sim ~now ~proc payload =
  let state = Proc.Map.find proc sim.states in
  let state', effects =
    match payload with
    | Deliver { src; packet } ->
        sim.handlers.on_packet proc ~now ~src packet state
    | Timer { id; epoch } ->
        if timer_epoch sim proc id = epoch then
          sim.handlers.on_timer proc ~now ~id state
        else (state, [])
    | Input input -> sim.handlers.on_input proc ~now input state
    | Status _ -> (state, [])
  in
  sim.states <- Proc.Map.add proc state' sim.states;
  (match sim.observe with Some f -> f proc state state' | None -> ());
  apply_effects sim ~now ~proc effects

let release_held sim ~now proc =
  match Proc.Map.find_opt proc sim.held with
  | None -> ()
  | Some held ->
      (* Remove the key outright — re-adding an empty list would leak one
         map entry per recovered processor for the rest of the run. *)
      sim.held <- Proc.Map.remove proc sim.held;
      (* Replay in original arrival order. *)
      List.iter (fun ev -> schedule sim ~time:now ev) (List.rev held)

let process_event sim ~now ev =
  sim.events_processed <- sim.events_processed + 1;
  match ev.payload with
  | Status status_event ->
      sim.tracker <- Fstatus.apply sim.tracker status_event;
      sim.statuses_applied <- sim.statuses_applied + 1;
      sim.trace_rev <- Timed.status now status_event :: sim.trace_rev;
      (match status_event with
      | Fstatus.Proc_status (p, (Fstatus.Good | Fstatus.Ugly)) ->
          release_held sim ~now p
      | _ -> ())
  | Deliver _ | Timer _ | Input _ -> (
      let proc =
        match ev.target with
        | Some p -> p
        | None ->
            (* Only Status events carry [target = None]; reaching this with
               a processor event means the scheduler put a mis-addressed
               event in the queue. Name the time and payload kind rather
               than dying with an anonymous [Option.get]. *)
            invalid_arg
              (Printf.sprintf
                 "Engine: invariant violation at t=%.3f: %s event has no \
                  target processor"
                 now
                 (match ev.payload with
                 | Deliver _ -> "deliver"
                 | Timer _ -> "timer"
                 | Input _ -> "input"
                 | Status _ -> "status"))
      in
      match Fstatus.proc_status sim.tracker proc with
      | Fstatus.Bad ->
          let held =
            match Proc.Map.find_opt proc sim.held with
            | Some l -> l
            | None -> []
          in
          sim.events_held <- sim.events_held + 1;
          sim.held <- Proc.Map.add proc (ev :: held) sim.held
      | Fstatus.Ugly when not ev.delayed_once ->
          sim.events_delayed_ugly <- sim.events_delayed_ugly + 1;
          let delay =
            Gcs_stdx.Prng.float sim.prng *. sim.config.ugly_delay_max
          in
          let time = now +. delay in
          let time =
            if not sim.config.fifo then time
            else begin
              (* FIFO mode: the extra handling delay of an ugly processor
                 must not reorder events — re-scheduled events keep their
                 arrival order. *)
              let floor =
                match Proc.Map.find_opt proc sim.ugly_floor with
                | Some t -> t +. 1e-9
                | None -> 0.0
              in
              let time = max time floor in
              sim.ugly_floor <- Proc.Map.add proc time sim.ugly_floor;
              time
            end
          in
          schedule sim ~time { ev with delayed_once = true }
      | Fstatus.Good | Fstatus.Ugly -> handle sim ~now ~proc ev.payload)

let run ?metrics ?observe ?stop config ~procs ~handlers ~init ~inputs
    ~failures ~until ~prng =
  let metrics =
    match metrics with Some m -> m | None -> Gcs_stdx.Metrics.create ()
  in
  let sim =
    {
      queue = Event_queue.empty;
      states =
        List.fold_left (fun acc p -> Proc.Map.add p (init p) acc) Proc.Map.empty
          procs;
      tracker = Fstatus.initial;
      held = Proc.Map.empty;
      timer_epochs = Proc.Map.empty;
      last_delivery = Proc.Map.empty;
      ugly_floor = Proc.Map.empty;
      trace_rev = [];
      events_processed = 0;
      packets_sent = 0;
      packets_dropped = 0;
      statuses_applied = 0;
      sent_good = 0;
      sent_self = 0;
      sent_ugly = 0;
      dropped_bad = 0;
      dropped_ugly = 0;
      events_held = 0;
      events_delayed_ugly = 0;
      max_queue_depth = 0;
      config;
      prng;
      handlers;
      observe;
    }
  in
  List.iter
    (fun (time, proc, input) ->
      schedule sim ~time
        { target = Some proc; payload = Input input; delayed_once = false })
    inputs;
  List.iter
    (fun (time, event) ->
      schedule sim ~time { target = None; payload = Status event; delayed_once = false })
    failures;
  (* Start every node at time 0. *)
  List.iter
    (fun proc ->
      let state = Proc.Map.find proc sim.states in
      let state', effects = handlers.on_start proc state in
      sim.states <- Proc.Map.add proc state' sim.states;
      (match observe with Some f -> f proc state state' | None -> ());
      apply_effects sim ~now:0.0 ~proc effects)
    procs;
  (* [stop] counts only the outputs in front of the [seen] tail of the
     trace, the ones the last event added: the effect path keeps no
     counter, and a run without [stop] pays nothing for it. *)
  let rec added ~seen acc = function
    | l when l == seen -> acc
    | [] -> acc
    | { Timed.item = Timed.Action _; _ } :: l -> added ~seen (acc + 1) l
    | { Timed.item = Timed.Status _; _ } :: l -> added ~seen acc l
  in
  let rec loop ~outputs ~seen =
    let depth = Event_queue.size sim.queue in
    if depth > sim.max_queue_depth then sim.max_queue_depth <- depth;
    match Event_queue.pop sim.queue with
    | None -> ()
    | Some (time, ev, rest) ->
        if time > until then ()
        else begin
          sim.queue <- rest;
          process_event sim ~now:time ev;
          match stop with
          | None -> loop ~outputs ~seen
          | Some stop ->
              let outputs = added ~seen outputs sim.trace_rev in
              if not (stop ~now:time ~outputs) then
                loop ~outputs ~seen:sim.trace_rev
        end
  in
  loop ~outputs:0 ~seen:[];
  let c name v = Gcs_stdx.Metrics.incr ~by:v metrics name in
  c "engine.events_processed" sim.events_processed;
  c "engine.statuses_applied" sim.statuses_applied;
  c "engine.packets_sent" sim.packets_sent;
  c "engine.packets_dropped" sim.packets_dropped;
  c "engine.packets_sent.good" sim.sent_good;
  c "engine.packets_sent.self" sim.sent_self;
  c "engine.packets_sent.ugly" sim.sent_ugly;
  c "engine.packets_dropped.bad" sim.dropped_bad;
  c "engine.packets_dropped.ugly" sim.dropped_ugly;
  c "engine.events_held.bad" sim.events_held;
  c "engine.events_delayed.ugly" sim.events_delayed_ugly;
  Gcs_stdx.Metrics.max_gauge metrics "engine.queue_depth.max"
    (float_of_int sim.max_queue_depth);
  {
    trace = List.rev sim.trace_rev;
    final_states = sim.states;
    events_processed = sim.events_processed;
    packets_sent = sim.packets_sent;
    packets_dropped = sim.packets_dropped;
    statuses_applied = sim.statuses_applied;
    metrics;
  }
