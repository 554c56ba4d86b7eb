open Gcs_core
open Gcs_impl

let engine_counters =
  [
    "engine.packets_sent.good";
    "engine.packets_sent.self";
    "engine.packets_sent.ugly";
    "engine.packets_dropped.bad";
    "engine.packets_dropped.ugly";
    "engine.events_held.bad";
    "engine.events_delayed.ugly";
  ]

(* A feature per bucketed-counter edge of one handler application. *)
let edges pre post fields =
  List.filter_map
    (fun (tag, f) ->
      let b1 = Service.bucket (f pre) and b2 = Service.bucket (f post) in
      if b1 = b2 then None else Some (Printf.sprintf "%s:%d>%d" tag b1 b2))
    fields

let bucket_changed f pre post =
  Service.bucket (f pre) <> Service.bucket (f post)

(* ------------------------------- VStoTO ------------------------------- *)

module Vstoto = struct
  let name = "vstoto"

  type config = To_service.config
  type input = Value.t
  type packet = Msg.t Wire.packet
  type node = To_service.node
  type out = To_service.out

  let configure config = config
  let procs config = config.To_service.vs.Vs_node.procs
  let default_n = 3
  let engine ~delta = Gcs_sim.Engine.default_config ~delta
  let handlers = To_service.handlers
  let initial = To_service.initial
  let codec = Wire.msg_packet_codec
  let lift ?dests:_ _ _ value = value
  let destinations config _ = procs config

  let progress =
    Service.Deliveries (fun node -> (To_service.node_app node).Vstoto.nextreport - 1)

  let completes_under_faults = true
  let batching = true
  let anchoring = Service.Token_anchored

  let client_trace trace =
    Timed.map
      (function To_service.Client a -> Some a | To_service.Vs_layer _ -> None)
      trace

  let settle config ~stabilization ~workload_end:_ =
    let b', d' = To_service.bounds config in
    stabilization +. b' +. d'

  let slack ~delta:_ = To_service.horizon_slack

  let verdict config ~faulty:_ ~until ~workload:_ trace final_nodes =
    Oracle.vstoto config ~until trace final_nodes

  let status_name = function
    | Vstoto.Normal -> "normal"
    | Vstoto.Send -> "send"
    | Vstoto.Collect -> "collect"

  let view_feature = function
    | None -> "-"
    | Some v ->
        Printf.sprintf "%d.%d" (Service.bucket v.View.id.View_id.num)
          (Proc.Set.cardinal v.View.set)

  let view_changed pre post =
    match (To_service.node_view pre, To_service.node_view post) with
    | None, None -> false
    | Some a, Some b -> not (View_id.equal a.View.id b.View.id)
    | None, Some _ | Some _, None -> true

  (* VStoTO status-pair transitions, primary/non-primary switches, and
     (bucketed view number, membership size) edges. Deliberately
     processor-free: the abstraction should identify symmetric
     schedules, not tell processors apart. *)
  let transition_features config me pre post =
    let s1 = To_service.node_status pre and s2 = To_service.node_status post in
    let p1 = To_service.node_primary config me pre
    and p2 = To_service.node_primary config me post in
    List.concat
      [
        (if Vstoto.status_equal s1 s2 then []
         else [ Printf.sprintf "st:%s>%s" (status_name s1) (status_name s2) ]);
        (if Bool.equal p1 p2 then [] else [ Printf.sprintf "pr:%b>%b" p1 p2 ]);
        (if view_changed pre post then
           [
             Printf.sprintf "vw:%s>%s"
               (view_feature (To_service.node_view pre))
               (view_feature (To_service.node_view post));
           ]
         else []);
      ]

  (* Every view install is a stable cut of the node's state. *)
  let snapshot_point = view_changed

  (* Status, view, delivery counters, the full delivered order, and the
     sizes of every queue the protocol keeps (buffer, delay, exchange
     bookkeeping), plus the service-level view-install count and staging
     depth. *)
  let snapshot node =
    let st = To_service.node_app node in
    let buf = Buffer.create 256 in
    Printf.bprintf buf "status=%s view=%s installed=%d staging=%d\n"
      (status_name (To_service.node_status node))
      (match To_service.node_view node with
      | None -> "-"
      | Some v ->
          Printf.sprintf "%d/%d" v.View.id.View_id.num
            (Proc.Set.cardinal v.View.set))
      (To_service.node_views_installed node)
      (List.length (To_service.node_staging node));
    Printf.bprintf buf "nr=%d nc=%d seq=%d\n" st.Vstoto.nextreport
      st.Vstoto.nextconfirm st.Vstoto.nextseqno;
    List.iter
      (fun l -> Printf.bprintf buf "o %s\n" (Format.asprintf "%a" Label.pp l))
      (Gcs_stdx.Tape.to_list st.Vstoto.order);
    Printf.bprintf buf "buf=%d delay=%d got=%d sx=%d sl=%d\n"
      (Gcs_stdx.Tape.length st.Vstoto.buffer)
      (Gcs_stdx.Tape.length st.Vstoto.delay)
      (Proc.Map.cardinal st.Vstoto.gotstate)
      (Proc.Set.cardinal st.Vstoto.safe_exch)
      (Label.Set.cardinal st.Vstoto.safe_labels);
    Buffer.contents buf

  (* Packet fates per link status, membership and token activity. *)
  let counter_names =
    engine_counters
    @ [
        "vs.membership_rounds";
        "vs.token_roundtrips";
        "vs.tokens_launched";
        "vs.views_installed";
      ]

  let counter_tag = "to"
  let fuzzy_tag = "vs"
end

(* -------------------------------- Skeen ------------------------------- *)

(* Destination subsets are derived, not stored: a deterministic hash of
   (origin, value) picks a subset of the group (empty hash picks fall
   back to full-group addressing). The same input therefore always runs
   the same multi-group workload — through the fuzzer, the shrinker and
   a repro replay alike. *)
let skeen_dests ~procs origin value =
  let h =
    String.fold_left
      (fun acc c -> (acc * 131) + Char.code c)
      ((origin * 7) + 13)
      value
  in
  List.filter (fun p -> (h lsr (p mod 12)) land 1 = 1) procs

module Skeen = struct
  module K = Gcs_skeen.Skeen

  let name = "skeen"

  type config = K.config
  type input = K.input
  type packet = K.packet
  type node = K.node
  type out = Value.t To_action.t

  let configure config = K.make_config ~procs:config.To_service.vs.Vs_node.procs
  let procs config = config.K.procs
  let default_n = 4

  let engine ~delta =
    { (Gcs_sim.Engine.default_config ~delta) with Gcs_sim.Engine.fifo = true }

  let handlers ?metrics:_ config = K.handlers config
  let initial _ = K.initial
  let codec = K.packet_codec

  let lift ?dests config origin value =
    match dests with
    | Some dests -> { K.value; dests }
    | None -> { K.value; dests = skeen_dests ~procs:config.K.procs origin value }

  let destinations config (input : input) = K.normalize_dests config input.dests
  let progress = Service.Outputs
  let completes_under_faults = false
  let batching = false
  let anchoring = Service.Serialized
  let client_trace trace = trace

  let settle _ ~stabilization ~workload_end =
    Float.max stabilization workload_end

  let slack ~delta = 50.0 *. delta

  let verdict config ~faulty ~until:_ ~workload trace final_nodes =
    Oracle.skeen config ~faulty ~workload trace final_nodes

  (* Bucketed pending-set size, delivery count and logical-clock edges. *)
  let transition_features _ _ pre post =
    edges pre post
      [
        ("sk.pend", K.node_pending);
        ("sk.del", K.node_delivered);
        ("sk.clk", K.node_clock);
      ]

  (* A delivery crossing a count bucket: the pending set just drained
     past a threshold. *)
  let snapshot_point = bucket_changed K.node_delivered
  let snapshot = K.snapshot_node
  let counter_names = engine_counters
  let counter_tag = "sk"
  let fuzzy_tag = "sk"
end

(* ------------------------------ sequencer ----------------------------- *)

module Sequencer = struct
  module Q = Gcs_baseline.Sequencer

  let name = "sequencer"

  type config = Q.config
  type input = Value.t
  type packet = Q.packet
  type node = Q.node
  type out = Value.t To_action.t

  let configure config = Q.make_config ~procs:config.To_service.vs.Vs_node.procs
  let procs config = config.Q.procs
  let default_n = 3

  (* Requests travel origin -> sequencer, so per-sender order (a
     TO-machine obligation) rests on FIFO links, as Skeen's does. *)
  let engine ~delta =
    { (Gcs_sim.Engine.default_config ~delta) with Gcs_sim.Engine.fifo = true }

  let handlers ?metrics:_ config = Q.handlers config
  let initial _ = Q.initial
  let codec = Q.packet_codec
  let lift ?dests:_ _ _ value = value
  let destinations config _ = config.Q.procs
  let progress = Service.Outputs
  let completes_under_faults = false
  let batching = false
  let anchoring = Service.Serialized
  let client_trace trace = trace

  let settle _ ~stabilization ~workload_end =
    Float.max stabilization workload_end

  let slack ~delta = 50.0 *. delta

  let verdict config ~faulty ~until:_ ~workload trace _ =
    Oracle.sequencer config ~faulty ~workload trace

  let transition_features _ _ pre post =
    edges pre post [ ("sq.pend", Q.node_pending); ("sq.del", Q.node_delivered) ]

  let snapshot_point = bucket_changed Q.node_delivered
  let snapshot = Q.snapshot_node
  let counter_names = engine_counters
  let counter_tag = "sq"
  let fuzzy_tag = "sq"
end

(* ------------------------------ registry ------------------------------ *)

let vstoto : Service.t = (module Vstoto)
let skeen : Service.t = (module Skeen)
let sequencer : Service.t = (module Sequencer)
let all = [ vstoto; skeen; sequencer ]
let names = List.map Service.name all
let find name = List.find_opt (fun s -> String.equal (Service.name s) name) all
