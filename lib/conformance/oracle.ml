open Gcs_core
open Gcs_impl

let vstoto_invariants : Vstoto.state Gcs_automata.Invariant.t list =
  [
    Gcs_automata.Invariant.make_explained "counters-ordered"
      (fun (st : Vstoto.state) ->
        if
          1 <= st.Vstoto.nextreport
          && st.Vstoto.nextreport <= st.Vstoto.nextconfirm
          && st.Vstoto.nextconfirm <= Gcs_stdx.Tape.length st.Vstoto.order + 1
        then Ok ()
        else
          Error
            (Printf.sprintf "nextreport=%d nextconfirm=%d |order|=%d"
               st.Vstoto.nextreport st.Vstoto.nextconfirm
               (Gcs_stdx.Tape.length st.Vstoto.order)));
    Gcs_automata.Invariant.make_explained "order-duplicate-free"
      (fun (st : Vstoto.state) ->
        let sorted =
          List.sort Label.compare (Gcs_stdx.Tape.to_list st.Vstoto.order)
        in
        let rec dup = function
          | a :: (b :: _ as rest) ->
              if Label.equal a b then Some a else dup rest
          | [] | [ _ ] -> None
        in
        match dup sorted with
        | None -> Ok ()
        | Some l -> Error (Format.asprintf "label %a ordered twice" Label.pp l));
    Gcs_automata.Invariant.make_explained "reported-prefix-content"
      (fun (st : Vstoto.state) ->
        let reported =
          Gcs_stdx.Seqx.take (st.Vstoto.nextreport - 1)
            (Gcs_stdx.Tape.to_list st.Vstoto.order)
        in
        match
          List.find_opt
            (fun l -> not (Label.Map.mem l st.Vstoto.content))
            reported
        with
        | None -> Ok ()
        | Some l ->
            Error
              (Format.asprintf "reported label %a has no content" Label.pp l));
  ]

let node_invariant_failure final_states =
  List.find_map
    (fun (p, node) ->
      match
        Gcs_automata.Invariant.first_failure vstoto_invariants
          (To_service.node_app node)
      with
      | Some (name, detail) ->
          Some
            ( "node-invariant",
              Printf.sprintf "proc %d: %s: %s" p name detail )
      | None -> None)
    (Proc.Map.bindings final_states)

(* ---------------------------- oracle chains --------------------------- *)

(* Batching oracle: a batch is drawn from the buffer of a single view
   (labels are stamped with the view that created them), so every
   [Msg.Batch] seen at the VS layer must be view-homogeneous. A mixed
   batch means a send crossed a view boundary. *)
let batch_boundary_violation vs_trace =
  List.find_map
    (fun (_, a) ->
      let msg =
        match a with
        | Vs_action.Gpsnd { msg; _ }
        | Vs_action.Gprcv { msg; _ }
        | Vs_action.Safe { msg; _ } ->
            Some msg
        | Vs_action.Newview _ | Vs_action.Createview _ | Vs_action.Vs_order _
          ->
            None
      in
      match msg with
      | Some (Msg.Batch ((l0, _) :: rest)) ->
          List.find_map
            (fun (l, _) ->
              if View_id.equal l.Label.id l0.Label.id then None
              else
                Some
                  (Format.asprintf
                     "batch mixes labels of views %a and %a" View_id.pp
                     l0.Label.id View_id.pp l.Label.id))
            rest
      | _ -> None)
    (Timed.actions vs_trace)

let vstoto config ~until trace final_nodes =
  let run =
    {
      To_service.trace;
      final_nodes;
      packets_sent = 0;
      packets_dropped = 0;
      events_processed = 0;
      metrics = Gcs_stdx.Metrics.create ();
    }
  in
  match To_service.to_conforms config run with
  | Error e ->
      Some ("to-conformance", Format.asprintf "%a" To_trace_checker.pp_error e)
  | Ok () -> (
      match To_service.vs_conforms config run with
      | Error e ->
          Some
            ("vs-conformance", Format.asprintf "%a" Vs_trace_checker.pp_error e)
      | Ok () -> (
          let b', d' = To_service.bounds config in
          let report =
            To_property.check ~b:b' ~d:d'
              ~q:config.To_service.vs.Vs_node.procs ~horizon:until
              (To_service.client_trace run)
          in
          if not (To_property.holds report) then
            Some
              ("delivery-bound", Format.asprintf "%a" To_property.pp_report report)
          else
            match batch_boundary_violation (To_service.vs_trace run) with
            | Some detail -> Some ("batch-view-boundary", detail)
            | None -> node_invariant_failure final_nodes))

let skeen config ~faulty ~workload trace final_nodes =
  let open Gcs_skeen in
  match Skeen.check_group_order config ~workload trace with
  | Error detail -> Some ("skeen-group-order", detail)
  | Ok () -> (
      match Skeen.node_invariant_failure final_nodes with
      | Some f -> Some f
      | None -> (
          if faulty then None
          else
            match Skeen.check_complete config ~workload trace with
            | Error detail -> Some ("skeen-completeness", detail)
            | Ok () -> None))

(* Per-node delivered sequences, in delivery order. *)
let delivered_orders procs trace =
  let rev =
    List.fold_left
      (fun acc (_, a) ->
        match a with
        | To_action.Brcv { src; dst; value } ->
            let prev = Option.value ~default:[] (Proc.Map.find_opt dst acc) in
            Proc.Map.add dst ((src, value) :: prev) acc
        | To_action.Bcast _ | To_action.To_order _ -> acc)
      Proc.Map.empty (Timed.actions trace)
  in
  List.map
    (fun p ->
      (p, List.rev (Option.value ~default:[] (Proc.Map.find_opt p rev))))
    procs

let rec is_prefix eq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' -> eq x y && is_prefix eq xs' ys'

(* Under message loss the sequencer promises only agreement: one total
   order, of which every node delivers a prefix. A lost request leaves a
   gap in its sender's submissions, which TO-machine's per-sender order
   rightly rejects — the design point the partitionable service
   improves on — so TO conformance and completeness are fault-free
   obligations. *)
let sequencer config ~faulty ~workload trace =
  let open Gcs_baseline in
  let procs = config.Sequencer.procs in
  if faulty then
    let orders = delivered_orders procs trace in
    let longest =
      List.fold_left
        (fun acc (_, o) -> if List.length o > List.length acc then o else acc)
        [] orders
    in
    let same (p, v) (q, w) = Proc.equal p q && Value.equal v w in
    List.find_map
      (fun (p, o) ->
        if is_prefix same o longest then None
        else
          Some
            ( "sequencer-agreement",
              Printf.sprintf
                "node %d's %d deliveries are not a prefix of the longest \
                 delivered order (%d)"
                p (List.length o) (List.length longest) ))
      orders
  else
    let params = { To_machine.procs; equal_value = Value.equal } in
    match To_trace_checker.check params (List.map snd (Timed.actions trace)) with
    | Error e ->
        Some ("to-conformance", Format.asprintf "%a" To_trace_checker.pp_error e)
    | Ok () -> (
        let delivered = Hashtbl.create 64 in
        List.iter
          (fun (p, o) ->
            List.iter (fun (src, v) -> Hashtbl.replace delivered (p, src, v) ()) o)
          (delivered_orders procs trace);
        let missing =
          List.concat_map
            (fun (_, p, v) ->
              List.filter_map
                (fun d ->
                  if Hashtbl.mem delivered (d, p, v) then None
                  else Some (Printf.sprintf "%d:%s at node %d" p v d))
                procs)
            workload
        in
        match missing with
        | [] -> None
        | m :: rest ->
            Some
              ( "sequencer-completeness",
                Printf.sprintf "%d undelivered (first: %s)"
                  (List.length rest + 1) m ))
