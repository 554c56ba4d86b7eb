open Gcs_core
open Gcs_sim

type config = {
  vs : Vs_node.config;
  quorums : Quorum.t;
  stable_storage_latency : float option;
  batch_window : float option;
}

let make_config ?stable_storage_latency ?quorums ?batch_window vs =
  let quorums =
    match quorums with
    | Some q -> q
    | None -> Quorum.majorities ~n:(List.length vs.Vs_node.procs)
  in
  { vs; quorums; stable_storage_latency; batch_window }

let bounds config =
  let vs = config.vs in
  let b' = Vs_node.impl_b vs +. Vs_node.impl_d vs in
  let d' = Vs_node.impl_d vs +. (4.0 *. vs.Vs_node.delta) in
  (b', d')

(* Extra slack past the theoretical horizon [l + b' + d']: leaves room for
   workload submitted shortly before stabilization to drain, so the
   delivery-bound check is not vacuously tight. *)
let horizon_slack = 60.0

type out =
  | Client of Value.t To_action.t
  | Vs_layer of Msg.t Vs_action.t

type node = {
  vs_state : Msg.t Vs_node.state;
  app : Vstoto.state;
  staging : (float * Value.t) Gcs_stdx.Tape.t;
      (* (due time, value): values awaiting the stable-storage write or the
         batching window; a single rolling timer flushes every due value as
         one batch *)
}

type run = {
  trace : out Timed.t;
  final_nodes : node Proc.Map.t;
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
  metrics : Gcs_stdx.Metrics.t;
}

(* Timer id for the staging flush — stable-storage write completion and/or
   batch-window expiry (Vs_node uses 1-4). *)
let timer_flush = 100

(* Delay between client submission and handing the value to the VStoTO
   automaton: the stable-storage write if configured, else the batching
   window, else none (immediate). *)
let submit_delay config =
  match (config.stable_storage_latency, config.batch_window) with
  | Some l, Some w -> Some (Float.max l w)
  | Some l, None -> Some l
  | None, w -> w

let node_params config me =
  {
    Vstoto.me;
    p0 = config.vs.Vs_node.p0;
    quorums = config.quorums;
    literal_figure_10 = false;
  }

let apply_app params action app =
  match Vstoto.transition params app action with
  | Some app' -> app'
  | None ->
      invalid_arg
        (Format.asprintf "to_service: VStoTO rejected %a" Sys_action.pp action)

(* Drain the VStoTO automaton to quiescence, then hand its outputs on in
   order: a gpsnd becomes a VS-layer client send, a brcv a client
   output. Returns the updated node and the accumulated effects. *)
let drain ?metrics config params node =
  let app, actions = Vstoto.drain params node.app in
  let rec go node effects_rev = function
    | [] -> (node, List.rev effects_rev)
    | Sys_action.Vs (Vs_action.Gpsnd { msg; _ }) :: rest ->
        (match metrics with
        | Some m -> (
            match msg with
            | Msg.App _ -> Gcs_stdx.Metrics.observe m "to.batch_size" 1.
            | Msg.Batch entries ->
                Gcs_stdx.Metrics.observe m "to.batch_size"
                  (float_of_int (List.length entries))
            | Msg.Summary _ -> ())
        | None -> ());
        let vs_state', vs_effects =
          Vs_node.client_send config.vs params.Vstoto.me msg node.vs_state
        in
        let effects_rev =
          List.rev_append
            (List.map
               (function
                 | Engine.Output a -> Engine.Output (Vs_layer a)
                 | Engine.Send s -> Engine.Send s
                 | Engine.Set_timer t -> Engine.Set_timer t
                 | Engine.Cancel_timer c -> Engine.Cancel_timer c)
               vs_effects)
            effects_rev
        in
        go { node with vs_state = vs_state' } effects_rev rest
    | Sys_action.Brcv { src; dst; value } :: rest ->
        go node
          (Engine.Output (Client (To_action.Brcv { src; dst; value }))
          :: effects_rev)
          rest
    | ( Sys_action.Label_act _ | Sys_action.Confirm _ | Sys_action.Bcast _
      | Sys_action.Vs _ )
      :: _ ->
        invalid_arg "to_service: unexpected VStoTO drain output"
  in
  go { node with app } [] actions

(* Submit values to the VStoTO automaton (after any staging delay): all
   bcasts are applied first, then a single drain labels them and [gpsnd]s
   the whole buffer as one batch. *)
let submit_batch ?metrics config params values node =
  let me = params.Vstoto.me in
  let app =
    List.fold_left
      (fun app value -> apply_app params (Sys_action.Bcast (me, value)) app)
      node.app values
  in
  drain ?metrics config params { node with app }

(* Route the effects produced by the VS node: VS outputs addressed to this
   processor become VStoTO inputs (then we drain); other effects pass
   through with outputs tagged. *)
let absorb_vs_effects ?metrics config me (node, effects) =
  let params = node_params config me in
  let rec go node acc_rev = function
    | [] -> (node, List.rev acc_rev)
    | Engine.Output (Vs_action.Newview _ as a) :: rest ->
        let app = apply_app params (Sys_action.Vs a) node.app in
        let node = { node with app } in
        (* Flush anything still staged into the new view: a value accepted
           before the view change would otherwise sit in [staging] with no
           guarantee its flush timer survives whatever killed the old view
           (a recovering processor re-enters through [Newview], not
           [on_start]). [Bcast] is accepted in every VStoTO status, so
           submitting here is always safe, and the values get labels of
           the new view — batches stay view-homogeneous. *)
        let staged =
          List.map snd (Gcs_stdx.Tape.to_list node.staging)
        in
        let node = { node with staging = Gcs_stdx.Tape.empty () } in
        let cancel =
          match staged with
          | [] -> []
          | _ :: _ -> [ Engine.Cancel_timer { id = timer_flush } ]
        in
        let node, drained =
          match staged with
          | [] -> drain ?metrics config params node
          | values -> submit_batch ?metrics config params values node
        in
        go node
          (List.rev_append drained
             (List.rev_append cancel (Engine.Output (Vs_layer a) :: acc_rev)))
          rest
    | Engine.Output (Vs_action.Gprcv _ as a) :: rest
    | Engine.Output (Vs_action.Safe _ as a) :: rest ->
        let app = apply_app params (Sys_action.Vs a) node.app in
        let node = { node with app } in
        let node, drained = drain ?metrics config params node in
        go node
          (List.rev_append drained (Engine.Output (Vs_layer a) :: acc_rev))
          rest
    | Engine.Output a :: rest ->
        go node (Engine.Output (Vs_layer a) :: acc_rev) rest
    | Engine.Send s :: rest -> go node (Engine.Send s :: acc_rev) rest
    | Engine.Set_timer t :: rest -> go node (Engine.Set_timer t :: acc_rev) rest
    | Engine.Cancel_timer c :: rest ->
        go node (Engine.Cancel_timer c :: acc_rev) rest
  in
  go node [] effects

(* Whether the token has collected every earlier send of this node, so a
   value can leave at once. Token pacing applies to pure batching only: a
   stable-storage write still holds each value for its full latency. *)
let token_caught_up config node =
  Option.is_none config.stable_storage_latency
  && Vs_node.uncollected node.vs_state = 0

(* Close the batch once a token visit has collected the node's last send:
   everything staged leaves as one batch and the flush timer is cancelled.
   The window only bounds how long a value waits for that visit. *)
let close_batch ?metrics config me (node, effects) =
  if Gcs_stdx.Tape.is_empty node.staging || not (token_caught_up config node)
  then (node, effects)
  else
    let values = List.map snd (Gcs_stdx.Tape.to_list node.staging) in
    let node, submitted =
      submit_batch ?metrics config (node_params config me) values
        { node with staging = Gcs_stdx.Tape.empty () }
    in
    (node, effects @ (Engine.Cancel_timer { id = timer_flush } :: submitted))

let lift_vs ?metrics config me f node =
  let vs_state', effects = f node.vs_state in
  absorb_vs_effects ?metrics config me
    ({ node with vs_state = vs_state' }, effects)
  |> close_batch ?metrics config me

let handlers ?metrics config =
  let vs_handlers = Vs_node.handlers ?metrics config.vs in
  let on_start me node =
    lift_vs ?metrics config me (vs_handlers.Engine.on_start me) node
  in
  let on_input me ~now value node =
    let record = Engine.Output (Client (To_action.Bcast (me, value))) in
    let submit_now node =
      let node, effects =
        submit_batch ?metrics config (node_params config me) [ value ] node
      in
      (node, record :: effects)
    in
    match submit_delay config with
    | None -> submit_now node
    | Some _
      when Gcs_stdx.Tape.is_empty node.staging && token_caught_up config node
      ->
        (* Nagle-style: nothing staged and nothing of ours uncollected, so
           the next token visit carries this value; waiting adds delay. *)
        submit_now node
    | Some delay ->
        (* Arm the flush timer only on the empty→nonempty transition: the
           invariant is that the timer is pending iff staging is nonempty,
           and it is always set for the earliest due value. *)
        let arm =
          if Gcs_stdx.Tape.is_empty node.staging then
            [ Engine.Set_timer { id = timer_flush; delay } ]
          else []
        in
        ( {
            node with
            staging = Gcs_stdx.Tape.snoc node.staging (now +. delay, value);
          },
          record :: arm )
  in
  let on_packet me ~now ~src packet node =
    lift_vs ?metrics config me
      (vs_handlers.Engine.on_packet me ~now ~src packet)
      node
  in
  let on_timer me ~now ~id node =
    if id = timer_flush then (
      (* Pure batching: everything staged when the window closes goes out
         as one batch. With a stable-storage latency, a value may only be
         submitted once its write completed, so flush the due prefix (due
         times are nondecreasing: same delay for every arrival). The loop
         drains until no entry is due, so the re-armed delay is strictly
         positive — a due-now head must flush in this step, never re-arm
         a zero-delay timer. *)
      let due_limit = now +. 1e-9 in
      let params = node_params config me in
      let rec flush_due node effects_rev =
        let n = Gcs_stdx.Tape.length node.staging in
        let k =
          match config.stable_storage_latency with
          | None -> n
          | Some _ ->
              let rec due_count i =
                if i >= n then i
                else
                  let t, _ = Gcs_stdx.Tape.get node.staging i in
                  if t <= due_limit then due_count (i + 1) else i
              in
              due_count 0
        in
        if k = 0 then (node, effects_rev)
        else begin
          let flushed = ref [] in
          for i = k - 1 downto 0 do
            flushed := snd (Gcs_stdx.Tape.get node.staging i) :: !flushed
          done;
          let node =
            { node with staging = Gcs_stdx.Tape.drop k node.staging }
          in
          let node, effects =
            submit_batch ?metrics config params !flushed node
          in
          flush_due node (List.rev_append effects effects_rev)
        end
      in
      let node, effects_rev = flush_due node [] in
      let rearm =
        if Gcs_stdx.Tape.is_empty node.staging then []
        else
          let t, _ = Gcs_stdx.Tape.get node.staging 0 in
          (* t > due_limit after the drain above, so the delay is > 0. *)
          [ Engine.Set_timer { id = timer_flush; delay = t -. now } ]
      in
      (node, List.rev effects_rev @ rearm))
    else lift_vs ?metrics config me (vs_handlers.Engine.on_timer me ~now ~id) node
  in
  { Engine.on_start; on_input; on_packet; on_timer }

let initial config me =
  {
    vs_state = Vs_node.initial config.vs me;
    app = Vstoto.initial (node_params config me);
    staging = Gcs_stdx.Tape.empty ();
  }

(* Observers over the per-processor state, for instrumentation layered on
   the handlers (coverage probes, planted-bug wrappers in lib/fuzz). *)

let node_app node = node.app

let node_view node = node.app.Vstoto.current

let node_status node = node.app.Vstoto.status

let node_primary config me node =
  Vstoto.primary (node_params config me) node.app

let node_views_installed node = Vs_node.views_installed node.vs_state

let node_staging node = Gcs_stdx.Tape.to_list node.staging

let iter_latencies f trace =
  let born = Hashtbl.create 64 in
  List.iter
    (fun { Timed.time; item } ->
      match item with
      | Timed.Action (To_action.Bcast (_, value)) ->
          if not (Hashtbl.mem born value) then Hashtbl.add born value time
      | Timed.Action (To_action.Brcv { value; _ }) ->
          Option.iter (fun t0 -> f (time -. t0)) (Hashtbl.find_opt born value)
      | Timed.Action (To_action.To_order _) | Timed.Status _ -> ())
    trace

(* Walk the client trace after the run and fill in the TO-level metrics:
   bcast/brcv counts and the per-delivery bcast→brcv latency histogram.
   Post-run is simpler than instrumenting the drain path (which has no
   [now] in scope) and equally deterministic: the trace is already in
   time order. *)
let record_to_metrics metrics trace =
  List.iter
    (fun { Timed.item; _ } ->
      match item with
      | Timed.Action (To_action.Bcast _) ->
          Gcs_stdx.Metrics.incr metrics "to.bcasts"
      | Timed.Action (To_action.Brcv _) ->
          Gcs_stdx.Metrics.incr metrics "to.deliveries"
      | Timed.Action (To_action.To_order _) | Timed.Status _ -> ())
    trace;
  iter_latencies (Gcs_stdx.Metrics.observe metrics "to.bcast_brcv_latency") trace

let client_trace_of trace =
  Timed.map (function Client a -> Some a | Vs_layer _ -> None) trace

let run_on ?metrics ?observe ?stop ~backend config ~workload ~failures ~until
    ~seed =
  let metrics =
    match metrics with Some m -> m | None -> Gcs_stdx.Metrics.create ()
  in
  let (module B : Gcs_transport.Iface.BACKEND) = backend in
  let result =
    B.run ~metrics ?observe ?stop Wire.msg_packet_codec
      ~procs:config.vs.Vs_node.procs ~handlers:(handlers ~metrics config)
      ~init:(initial config) ~inputs:workload ~failures ~until ~seed
  in
  record_to_metrics metrics
    (client_trace_of result.Gcs_transport.Iface.trace);
  {
    trace = result.Gcs_transport.Iface.trace;
    final_nodes = result.Gcs_transport.Iface.final_states;
    packets_sent = result.Gcs_transport.Iface.packets_sent;
    packets_dropped = result.Gcs_transport.Iface.packets_dropped;
    events_processed = result.Gcs_transport.Iface.events_processed;
    metrics;
  }

let sim ?engine config =
  Gcs_sim.Backend.of_config
    (Option.value engine
       ~default:(Engine.default_config ~delta:config.vs.Vs_node.delta))

let run ?metrics ?engine config =
  run_on ?metrics ~backend:(sim ?engine config) config

let client_trace r = client_trace_of r.trace

let vs_trace r =
  Timed.map (function Vs_layer a -> Some a | Client _ -> None) r.trace

let to_conforms config r =
  let params =
    { To_machine.procs = config.vs.Vs_node.procs; equal_value = Value.equal }
  in
  To_trace_checker.check params (List.map snd (Timed.actions (client_trace r)))

let vs_conforms config r =
  let params =
    {
      Vs_machine.procs = config.vs.Vs_node.procs;
      p0 = config.vs.Vs_node.p0;
      equal_msg = Msg.equal;
      weak = false;
    }
  in
  Vs_trace_checker.check params (List.map snd (Timed.actions (vs_trace r)))

let deliveries r =
  List.length
    (List.filter
       (fun (_, a) -> match a with To_action.Brcv _ -> true | _ -> false)
       (Timed.actions (client_trace r)))
