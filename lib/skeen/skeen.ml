open Gcs_core
open Gcs_sim

type config = { procs : Proc.t list }

let make_config ~procs =
  match procs with
  | [] -> invalid_arg "Skeen.make_config: empty processor list"
  | _ :: _ -> { procs }

(* ---------------------------- timestamps ----------------------------- *)

type ts = { clock : int; origin : Proc.t }

let ts_compare a b =
  match Int.compare a.clock b.clock with
  | 0 -> Proc.compare a.origin b.origin
  | c -> c

type mid = { sender : Proc.t; seq : int }

let mid_compare a b =
  match Proc.compare a.sender b.sender with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

module Mid_map = Map.Make (struct
  type t = mid

  let compare = mid_compare
end)

(* Delivery-queue key: (timestamp, committed, mid) — see [deliver_ready]. *)
module Queue_set = Set.Make (struct
  type t = ts * bool * mid

  let compare (ta, ca, ma) (tb, cb, mb) =
    match ts_compare ta tb with
    | 0 -> (
        match Bool.compare ca cb with 0 -> mid_compare ma mb | c -> c)
    | c -> c
end)

(* ------------------------------ protocol ----------------------------- *)

type input = { value : Value.t; dests : Proc.t list }

(* Empty destination lists mean "the whole group"; duplicates collapse.
   The checkers apply the same normalization, so a workload and the
   deliveries it causes agree on who the destinations were. *)
let normalize_dests config dests =
  match List.sort_uniq Proc.compare dests with
  | [] -> config.procs
  | ds -> ds

let full_group value = { value; dests = [] }

type packet =
  | Propose of { mid : mid; value : Value.t; dests : Proc.t list }
  | Proposal of { mid : mid; ts : ts }
  | Commit of { mid : mid; ts : ts }

(* Destination-side bookkeeping for one undelivered message. *)
type entry = { value : Value.t; proposed : ts; final : ts option }

(* Origin-side coordination: outstanding proposals for one message. *)
type coord = { c_value : Value.t; c_dests : Proc.t list; proposals : ts Proc.Map.t }

type node = {
  me : Proc.t;
  clock : int;
  next_seq : int;
  coords : coord Mid_map.t;
  pending : entry Mid_map.t;
  queue : Queue_set.t;
  delivered : int;
}

let initial me =
  {
    me;
    clock = 0;
    next_seq = 0;
    coords = Mid_map.empty;
    pending = Mid_map.empty;
    queue = Queue_set.empty;
    delivered = 0;
  }

let node_clock node = node.clock
let node_delivered node = node.delivered
let node_pending node = Mid_map.cardinal node.pending
let node_outstanding node = Mid_map.cardinal node.coords

(* Deterministic node-state serialization for the fuzzer's fuzzy-hashed
   state coverage: Lamport clock, delivery count, every pending entry
   with its proposed/committed timestamps, every outstanding
   coordination with its proposal count. Map iteration order is the key
   order, so equal states render to equal bytes. *)
let snapshot_node node =
  let buf = Buffer.create 128 in
  let ts (t : ts) = Printf.sprintf "%d.%d" t.clock t.origin in
  Printf.bprintf buf "me=%d clk=%d seq=%d del=%d\n" node.me node.clock
    node.next_seq node.delivered;
  Mid_map.iter
    (fun m e ->
      Printf.bprintf buf "pend %d.%d %s %s %s\n" m.sender m.seq e.value
        (ts e.proposed)
        (match e.final with None -> "-" | Some f -> ts f))
    node.pending;
  Mid_map.iter
    (fun m c ->
      Printf.bprintf buf "coord %d.%d %s %d/%d\n" m.sender m.seq c.c_value
        (Proc.Map.cardinal c.proposals)
        (List.length c.c_dests))
    node.coords;
  Buffer.contents buf

(* [queue] holds one key per pending entry, ordered by timestamp: the
   proposed one while uncommitted, the final one once committed. A
   committed message is deliverable once it heads the queue: a proposed
   timestamp lower-bounds the final one (final = max over proposals), and
   any message not yet proposed here will be proposed above the current
   clock, which the Commit already raised past every delivered final. On
   equal timestamps an uncommitted key sorts first, so a committed head is
   strictly below every uncommitted proposal; committed ties break on
   [mid]. All timestamps within one node's pending set are distinct (a
   proposer's clocks strictly increase; [origin] breaks cross-proposer
   ties), so the tie rule never blocks spuriously. *)
let rec deliver_ready node =
  match Queue_set.min_elt_opt node.queue with
  | Some ((_, true, m) as key) ->
      let e = Mid_map.find m node.pending in
      let node =
        {
          node with
          pending = Mid_map.remove m node.pending;
          queue = Queue_set.remove key node.queue;
          delivered = node.delivered + 1;
        }
      in
      let node, rest = deliver_ready node in
      ( node,
        Engine.Output
          (To_action.Brcv { src = m.sender; dst = node.me; value = e.value })
        :: rest )
  | Some (_, false, _) | None -> (node, [])

let handlers config =
  let on_start _me node = (node, []) in
  let on_input me ~now:_ input node =
    let dests = normalize_dests config input.dests in
    let mid = { sender = me; seq = node.next_seq } in
    let node =
      {
        node with
        next_seq = node.next_seq + 1;
        coords =
          Mid_map.add mid
            { c_value = input.value; c_dests = dests; proposals = Proc.Map.empty }
            node.coords;
      }
    in
    ( node,
      Engine.Output (To_action.Bcast (me, input.value))
      :: List.map
           (fun dst ->
             Engine.Send
               { dst; packet = Propose { mid; value = input.value; dests } })
           dests )
  in
  let on_packet me ~now:_ ~src packet node =
    match packet with
    | Propose { mid; value; dests = _ } ->
        if Mid_map.mem mid node.pending then (node, [])
        else
          let clock = node.clock + 1 in
          let proposed = { clock; origin = me } in
          let node =
            {
              node with
              clock;
              pending =
                Mid_map.add mid { value; proposed; final = None } node.pending;
              queue = Queue_set.add (proposed, false, mid) node.queue;
            }
          in
          ( node,
            [
              Engine.Send
                { dst = mid.sender; packet = Proposal { mid; ts = proposed } };
            ] )
    | Proposal { mid; ts } -> (
        match Mid_map.find_opt mid node.coords with
        | None -> (node, [])
        | Some c ->
            let proposals = Proc.Map.add src ts c.proposals in
            if
              not
                (List.for_all (fun d -> Proc.Map.mem d proposals) c.c_dests)
            then
              ( { node with coords = Mid_map.add mid { c with proposals } node.coords },
                [] )
            else
              let final =
                Proc.Map.fold
                  (fun _ t acc ->
                    match acc with
                    | None -> Some t
                    | Some b -> if ts_compare t b > 0 then Some t else acc)
                  proposals None
              in
              (match final with
              | None ->
                  (* Destinations are nonempty by [normalize_dests], so a
                     complete proposal set is nonempty. *)
                  (node, [])
              | Some f ->
                  let node = { node with coords = Mid_map.remove mid node.coords } in
                  ( node,
                    List.map
                      (fun dst ->
                        Engine.Send { dst; packet = Commit { mid; ts = f } })
                      c.c_dests )))
    | Commit { mid; ts } -> (
        match Mid_map.find_opt mid node.pending with
        | None -> (node, [])
        | Some e -> (
            match e.final with
            | Some _ -> (node, [])
            | None ->
                let node =
                  {
                    node with
                    clock = max node.clock ts.clock;
                    pending =
                      Mid_map.add mid { e with final = Some ts } node.pending;
                    queue =
                      Queue_set.add (ts, true, mid)
                        (Queue_set.remove (e.proposed, false, mid) node.queue);
                  }
                in
                deliver_ready node))
  in
  let on_timer _me ~now:_ ~id:_ node = (node, []) in
  { Engine.on_start; on_input; on_packet; on_timer }

(* ----------------------------- byte codec ---------------------------- *)

module W = Gcs_impl.Wire.Writer
module R = Gcs_impl.Wire.Reader

let write_mid w (m : mid) = W.int w m.sender; W.int w m.seq
let write_ts w (t : ts) = W.int w t.clock; W.int w t.origin

let read_mid r =
  let sender = R.int r in
  { sender; seq = R.int r }

let read_ts r =
  let clock = R.int r in
  { clock; origin = R.int r }

let write_packet w = function
  | Propose { mid; value; dests } ->
      W.tag w 'p'; write_mid w mid; W.string w value; W.list w W.int dests
  | Proposal { mid; ts } -> W.tag w 'q'; write_mid w mid; write_ts w ts
  | Commit { mid; ts } -> W.tag w 'c'; write_mid w mid; write_ts w ts

let read_packet r =
  match R.tag r with
  | 'p' ->
      let mid = read_mid r in
      let value = R.string r in
      Propose { mid; value; dests = R.list r R.int }
  | 'q' ->
      let mid = read_mid r in
      Proposal { mid; ts = read_ts r }
  | 'c' ->
      let mid = read_mid r in
      Commit { mid; ts = read_ts r }
  | c -> R.fail r "skeen packet: unknown tag %C" c

let packet_codec : packet Gcs_transport.Iface.codec =
  Gcs_impl.Wire.codec write_packet read_packet

let encode_packet = packet_codec.enc
let decode_packet = packet_codec.dec

let pp_packet ppf = function
  | Propose { mid; value; dests } ->
      Format.fprintf ppf "propose(%d.%d,%s,|%d|)" mid.sender mid.seq value
        (List.length dests)
  | Proposal { mid; ts } ->
      Format.fprintf ppf "proposal(%d.%d,%d.%d)" mid.sender mid.seq ts.clock
        ts.origin
  | Commit { mid; ts } ->
      Format.fprintf ppf "commit(%d.%d,%d.%d)" mid.sender mid.seq ts.clock
        ts.origin

(* ------------------------------- runs -------------------------------- *)

type run = {
  trace : Value.t To_action.t Timed.t;
  final_nodes : node Proc.Map.t;
  packets_sent : int;
  packets_dropped : int;
  events_processed : int;
}

let run_on ?metrics ?observe ?stop ~backend config ~workload ~failures ~until
    ~seed =
  let (module B : Gcs_transport.Iface.BACKEND) = backend in
  let result =
    B.run ?metrics ?observe ?stop packet_codec ~procs:config.procs
      ~handlers:(handlers config) ~init:initial ~inputs:workload ~failures
      ~until ~seed
  in
  {
    trace = result.Gcs_transport.Iface.trace;
    final_nodes = result.Gcs_transport.Iface.final_states;
    packets_sent = result.Gcs_transport.Iface.packets_sent;
    packets_dropped = result.Gcs_transport.Iface.packets_dropped;
    events_processed = result.Gcs_transport.Iface.events_processed;
  }

let deliveries r =
  List.length
    (List.filter
       (fun (_, a) -> match a with To_action.Brcv _ -> true | _ -> false)
       (Timed.actions r.trace))

let orders procs r =
  let rev =
    List.fold_left
      (fun acc (_, action) ->
        match action with
        | To_action.Brcv { src; dst; value } ->
            let prev =
              match Proc.Map.find_opt dst acc with Some l -> l | None -> []
            in
            Proc.Map.add dst (Printf.sprintf "%d:%s" src value :: prev) acc
        | _ -> acc)
      Proc.Map.empty (Timed.actions r.trace)
  in
  List.map
    (fun p ->
      ( p,
        match Proc.Map.find_opt p rev with
        | Some l -> List.rev l
        | None -> [] ))
    procs

let to_conforms config r =
  let params = { To_machine.procs = config.procs; equal_value = Value.equal } in
  To_trace_checker.check params (List.map snd (Timed.actions r.trace))

(* ------------------------- multi-group oracle ------------------------ *)

(* The classic TO-machine checker forces one total order delivered by
   everyone — right for full-group workloads, vacuously wrong for partial
   multicast, where two nodes only agree on the {e common} subsequence of
   what they both receive. This oracle checks exactly the Skeen
   guarantees over a multi-group workload:

   - deliveries only at declared destinations, each at most once, and
     causally after the submission;
   - per-origin FIFO between messages with the same destination set
     (links are FIFO, so an origin's proposals — hence finals — rise in
     submission order);
   - pairwise agreement: any two nodes deliver the messages they share
     in the same relative order. *)

type expectation = {
  e_dests : Proc.t list;  (** normalized destination set *)
  e_index : int;  (** submission order (stable by time, then list order) *)
}

let key src value = Printf.sprintf "%d\x00%s" src value

let expectations config workload =
  let sorted =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      workload
  in
  let tbl = Hashtbl.create (List.length workload) in
  List.iteri
    (fun i (_, p, (input : input)) ->
      Hashtbl.replace tbl
        (key p input.value)
        { e_dests = normalize_dests config input.dests; e_index = i })
    sorted;
  tbl

let check_group_order config ~workload trace =
  let expected = expectations config workload in
  let submitted = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  let per_node : (Proc.t, (Proc.t * Value.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let node_list p =
    match Hashtbl.find_opt per_node p with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add per_node p r;
        r
  in
  let exception Violation of string in
  try
    List.iter
      (fun (_, action) ->
        match action with
        | To_action.Bcast (p, v) -> Hashtbl.replace submitted (key p v) ()
        | To_action.Brcv { src; dst; value } -> (
            match Hashtbl.find_opt expected (key src value) with
            | None ->
                raise
                  (Violation
                     (Printf.sprintf "node %d delivered unknown message %d:%s"
                        dst src value))
            | Some e ->
                if not (Hashtbl.mem submitted (key src value)) then
                  raise
                    (Violation
                       (Printf.sprintf
                          "node %d delivered %d:%s before its submission" dst
                          src value));
                if not (List.exists (Proc.equal dst) e.e_dests) then
                  raise
                    (Violation
                       (Printf.sprintf
                          "node %d delivered %d:%s addressed to {%s}" dst src
                          value
                          (String.concat ","
                             (List.map string_of_int e.e_dests))));
                let k = Printf.sprintf "%d\x00%s" dst (key src value) in
                if Hashtbl.mem seen k then
                  raise
                    (Violation
                       (Printf.sprintf "node %d delivered %d:%s twice" dst src
                          value));
                Hashtbl.replace seen k ();
                let r = node_list dst in
                r := (src, value) :: !r)
        | To_action.To_order _ -> ())
      (Timed.actions trace);
    let nodes =
      List.sort Proc.compare
        (Hashtbl.fold (fun p _ acc -> p :: acc) per_node [])
    in
    (* Per-origin FIFO within equal destination sets. *)
    List.iter
      (fun dst ->
        let seq = List.rev !(node_list dst) in
        let last : (string, int * string) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (src, value) ->
            match Hashtbl.find_opt expected (key src value) with
            | None -> ()
            | Some e ->
                let group =
                  Printf.sprintf "%d\x00%s" src
                    (String.concat "," (List.map string_of_int e.e_dests))
                in
                (match Hashtbl.find_opt last group with
                | Some (prev_index, prev_value) when prev_index > e.e_index ->
                    raise
                      (Violation
                         (Printf.sprintf
                            "node %d delivered %d:%s after %d:%s (same \
                             destination set, submitted earlier)"
                            dst src value src prev_value))
                | _ -> ());
                Hashtbl.replace last group (e.e_index, value))
          seq)
      nodes;
    (* Pairwise agreement on common messages. *)
    List.iter
      (fun p ->
        List.iter
          (fun q ->
            if Proc.compare p q < 0 then begin
              let p_seq = List.rev !(node_list p) in
              let q_pos = Hashtbl.create 64 in
              List.iteri
                (fun i (src, value) ->
                  Hashtbl.replace q_pos (key src value) i)
                (List.rev !(node_list q));
              let highest = ref (-1) in
              List.iter
                (fun (src, value) ->
                  match Hashtbl.find_opt q_pos (key src value) with
                  | None -> ()
                  | Some i ->
                      if i < !highest then
                        raise
                          (Violation
                             (Printf.sprintf
                                "nodes %d and %d disagree on the order of \
                                 their common deliveries (at %d:%s)"
                                p q src value))
                      else highest := i)
                p_seq
            end)
          nodes)
      nodes;
    Ok ()
  with Violation detail -> Error detail

let check_complete config ~workload trace =
  let delivered = Hashtbl.create 64 in
  List.iter
    (fun (_, action) ->
      match action with
      | To_action.Brcv { src; dst; value } ->
          Hashtbl.replace delivered (Printf.sprintf "%d\x00%s" dst (key src value)) ()
      | _ -> ())
    (Timed.actions trace);
  let missing =
    List.concat_map
      (fun (_, p, (input : input)) ->
        List.filter_map
          (fun d ->
            if
              Hashtbl.mem delivered
                (Printf.sprintf "%d\x00%s" d (key p input.value))
            then None
            else Some (Printf.sprintf "%d:%s at node %d" p input.value d))
          (normalize_dests config input.dests))
      workload
  in
  match missing with
  | [] -> Ok ()
  | m :: rest ->
      Error
        (Printf.sprintf "%d undelivered (first: %s)" (List.length rest + 1) m)

let expected_deliveries config workload =
  List.fold_left
    (fun acc (_, _, (input : input)) ->
      acc + List.length (normalize_dests config input.dests))
    0 workload

(* --------------------------- node invariants ------------------------- *)

(* The delivery queue holds exactly one key per pending entry, carrying
   its final timestamp once committed and its proposed one before. Keys
   are distinct per [mid], so equal sizes plus membership of every
   expected key make the two sets equal. *)
let queue_incoherence p node =
  let key m e =
    match e.final with
    | Some f -> (f, true, m)
    | None -> (e.proposed, false, m)
  in
  let fail detail =
    Some ("skeen-node-invariant", Printf.sprintf "proc %d: %s" p detail)
  in
  let queued = Queue_set.cardinal node.queue
  and pending = Mid_map.cardinal node.pending in
  if queued <> pending then
    fail (Printf.sprintf "delivery queue holds %d keys for %d pending" queued pending)
  else
    match
      Seq.find
        (fun (m, e) -> not (Queue_set.mem (key m e) node.queue))
        (Mid_map.to_seq node.pending)
    with
    | Some (m, _) ->
        fail (Printf.sprintf "message %d.%d pending without its queue key" m.sender m.seq)
    | None -> None

let node_invariant_failure final_nodes =
  List.find_map
    (fun (p, node) ->
      if node.clock < 0 then
        Some
          ( "skeen-node-invariant",
            Printf.sprintf "proc %d: negative clock %d" p node.clock )
      else if node.delivered < 0 then
        Some
          ( "skeen-node-invariant",
            Printf.sprintf "proc %d: negative delivery count" p )
      else
        (* Seeded with the queue check: its failure, if any, is reported. *)
        Mid_map.fold
          (fun m e acc ->
            match (acc, e.final) with
            | Some _, _ | _, None -> acc
            | None, Some f ->
                (* final = max over proposals ≥ this node's own proposal *)
                if ts_compare f e.proposed < 0 then
                  Some
                    ( "skeen-node-invariant",
                      Printf.sprintf
                        "proc %d: message %d.%d committed below its own \
                         proposal (%d.%d < %d.%d)"
                        p m.sender m.seq f.clock f.origin e.proposed.clock
                        e.proposed.origin )
                else None)
          node.pending (queue_incoherence p node))
    (Proc.Map.bindings final_nodes)
