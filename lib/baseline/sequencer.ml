open Gcs_core
open Gcs_sim

type config = { procs : Proc.t list; sequencer : Proc.t }

let make_config ~procs =
  match procs with
  | [] -> invalid_arg "Sequencer.make_config: empty processor list"
  | p :: rest -> { procs; sequencer = List.fold_left min p rest }

type packet =
  | Request of { origin : Proc.t; value : Value.t }
  | Ordered of { seq : int; origin : Proc.t; value : Value.t }

type node = {
  me : Proc.t;
  next_seq : int;  (* sequencer only: next number to assign *)
  next_deliver : int;  (* next sequence number to deliver *)
  pending : (int * Proc.t * Value.t) list;  (* out-of-order buffer *)
}

type run = {
  trace : Value.t To_action.t Timed.t;
  packets_sent : int;
  packets_dropped : int;
}

let initial me = { me; next_seq = 1; next_deliver = 1; pending = [] }

let node_delivered node = node.next_deliver - 1
let node_pending node = List.length node.pending

let snapshot_node node =
  let buf = Buffer.create 64 in
  Printf.bprintf buf "next_seq=%d next_deliver=%d\n" node.next_seq
    node.next_deliver;
  List.iter
    (fun (seq, origin, value) ->
      Printf.bprintf buf "p %d %d %s\n" seq origin value)
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) node.pending);
  Buffer.contents buf

(* Deliver every buffered message that is next in sequence. *)
let rec drain node =
  match
    List.find_opt (fun (seq, _, _) -> seq = node.next_deliver) node.pending
  with
  | None -> (node, [])
  | Some ((seq, origin, value) as entry) ->
      let node =
        {
          node with
          next_deliver = seq + 1;
          pending = List.filter (fun e -> e <> entry) node.pending;
        }
      in
      let node, rest = drain node in
      ( node,
        Engine.Output (To_action.Brcv { src = origin; dst = node.me; value })
        :: rest )

let handlers config =
  let on_start _me node = (node, []) in
  let on_input me ~now:_ value node =
    let record = Engine.Output (To_action.Bcast (me, value)) in
    ( node,
      [
        record;
        Engine.Send
          {
            dst = config.sequencer;
            packet = Request { origin = me; value };
          };
      ] )
  in
  let on_packet me ~now:_ ~src:_ packet node =
    match packet with
    | Request { origin; value } ->
        if not (Proc.equal me config.sequencer) then (node, [])
        else
          let seq = node.next_seq in
          let node = { node with next_seq = seq + 1 } in
          ( node,
            List.map
              (fun dst ->
                Engine.Send { dst; packet = Ordered { seq; origin; value } })
              config.procs )
    | Ordered { seq; origin; value } ->
        if seq < node.next_deliver then (node, [])
        else
          let node =
            { node with pending = (seq, origin, value) :: node.pending }
          in
          drain node
  in
  let on_timer _me ~now:_ ~id:_ node = (node, []) in
  { Engine.on_start; on_input; on_packet; on_timer }

(* Byte codec over the shared wire primitives, so the baseline can run on
   the bus for wall-clock comparisons against VStoTO and Skeen. *)

module W = Gcs_impl.Wire.Writer
module R = Gcs_impl.Wire.Reader

let write_packet w = function
  | Request { origin; value } -> W.tag w 'r'; W.int w origin; W.string w value
  | Ordered { seq; origin; value } ->
      W.tag w 'o'; W.int w seq; W.int w origin; W.string w value

let read_packet r =
  match R.tag r with
  | 'r' ->
      let origin = R.int r in
      Request { origin; value = R.string r }
  | 'o' ->
      let seq = R.int r in
      let origin = R.int r in
      Ordered { seq; origin; value = R.string r }
  | c -> R.fail r "sequencer packet: unknown tag %C" c

let packet_codec : packet Gcs_transport.Iface.codec =
  Gcs_impl.Wire.codec write_packet read_packet

let encode_packet = packet_codec.enc
let decode_packet = packet_codec.dec

let run_on ?metrics ?stop ~backend config ~workload ~failures ~until ~seed =
  let (module B : Gcs_transport.Iface.BACKEND) = backend in
  let result =
    B.run ?metrics ?stop packet_codec ~procs:config.procs
      ~handlers:(handlers config) ~init:initial ~inputs:workload ~failures
      ~until ~seed
  in
  {
    trace = result.Gcs_transport.Iface.trace;
    packets_sent = result.Gcs_transport.Iface.packets_sent;
    packets_dropped = result.Gcs_transport.Iface.packets_dropped;
  }

let to_conforms config r =
  let params = { To_machine.procs = config.procs; equal_value = Value.equal } in
  To_trace_checker.check params (List.map snd (Timed.actions r.trace))

let deliveries r =
  List.length
    (List.filter
       (fun (_, a) -> match a with To_action.Brcv _ -> true | _ -> false)
       (Timed.actions r.trace))
