open Gcs_automata
module Pg_map = Vs_machine.Pg_map

type history = {
  established : Proc.Set.t View_id.Map.t;
  buildorder : Label.t list Pg_map.t;
}

type state = {
  vs : Msg.t Vs_machine.state;
  nodes : Vstoto.state Proc.Map.t;
  history : history;
}

type params = {
  procs : Proc.t list;
  p0 : Proc.t list;
  quorums : Quorum.t;
  literal_figure_10 : bool;
  weak_vs : bool;
}

let make_params ?(literal_figure_10 = false) ?(weak_vs = false) ~procs ~p0
    ~quorums () =
  { procs; p0; quorums; literal_figure_10; weak_vs }

let vs_params params =
  {
    Vs_machine.procs = params.procs;
    p0 = params.p0;
    equal_msg = Msg.equal;
    weak = params.weak_vs;
  }

let node_params params p =
  {
    Vstoto.me = p;
    p0 = params.p0;
    quorums = params.quorums;
    literal_figure_10 = params.literal_figure_10;
  }

let node state p = Proc.Map.find p state.nodes

let established state p g =
  match View_id.Map.find_opt g state.history.established with
  | Some set -> Proc.Set.mem p set
  | None -> false

let buildorder state p g =
  match Pg_map.find_opt (p, g) state.history.buildorder with
  | Some ord -> ord
  | None -> []

let initial params =
  {
    vs = Vs_machine.initial (vs_params params);
    nodes =
      List.fold_left
        (fun acc p ->
          Proc.Map.add p (Vstoto.initial (node_params params p)) acc)
        Proc.Map.empty params.procs;
    history =
      {
        established =
          View_id.Map.singleton View_id.g0 (Proc.set_of_list params.p0);
        buildorder = Pg_map.empty;
      };
  }

(* The (at most one) processor whose VStoTO automaton participates in an
   action. *)
let touched_node action =
  match action with
  | Sys_action.Bcast (p, _)
  | Sys_action.Label_act (p, _)
  | Sys_action.Confirm p ->
      Some p
  | Sys_action.Brcv { dst; _ } -> Some dst
  | Sys_action.Vs (Vs_action.Gpsnd { sender; _ }) -> Some sender
  | Sys_action.Vs (Vs_action.Gprcv { dst; _ })
  | Sys_action.Vs (Vs_action.Safe { dst; _ }) ->
      Some dst
  | Sys_action.Vs (Vs_action.Newview { proc; _ }) -> Some proc
  | Sys_action.Vs (Vs_action.Createview _)
  | Sys_action.Vs (Vs_action.Vs_order _) ->
      None

let update_history params pre_node post_node p history =
  ignore params;
  let history =
    (* established[p, current.id_p] ← true on completion of the state
       exchange (status collect → normal). *)
    match (pre_node.Vstoto.status, post_node.Vstoto.status) with
    | Vstoto.Collect, Vstoto.Normal ->
        let g =
          match post_node.Vstoto.current with
          | Some v -> v.View.id
          | None ->
              (* Collect → normal only happens on [establish], which
                 requires a current view; anything else is a
                 protocol-logic bug worth a named diagnostic. *)
              invalid_arg
                (Printf.sprintf
                   "Vstoto_system.update_history: invariant violation at \
                    proc %d: state exchange completed with no current view"
                   p)
        in
        let set =
          match View_id.Map.find_opt g history.established with
          | Some s -> s
          | None -> Proc.Set.empty
        in
        {
          history with
          established =
            View_id.Map.add g (Proc.Set.add p set) history.established;
        }
    | _ -> history
  in
  (* buildorder[p, current.id_p] ← order after every assignment to order. *)
  let order_changed =
    not
      (Gcs_stdx.Tape.equal Label.equal pre_node.Vstoto.order
         post_node.Vstoto.order)
  in
  let establishment =
    Vstoto.status_equal pre_node.Vstoto.status Vstoto.Collect
    && Vstoto.status_equal post_node.Vstoto.status Vstoto.Normal
  in
  match post_node.Vstoto.current with
  | Some v when order_changed || establishment ->
      {
        history with
        buildorder =
          Pg_map.add (p, v.View.id)
            (Gcs_stdx.Tape.to_list post_node.Vstoto.order)
            history.buildorder;
      }
  | _ -> history

let transition params =
  let vsp = vs_params params in
  let vs_machine = Vs_machine.automaton vsp in
  let node_automata =
    List.fold_left
      (fun acc p -> Proc.Map.add p (Vstoto.automaton (node_params params p)) acc)
      Proc.Map.empty params.procs
  in
  fun state action ->
    let vs_step state =
      match action with
      | Sys_action.Vs va -> (
          match vs_machine.Automaton.transition state.vs va with
          | Some vs' -> Some { state with vs = vs' }
          | None -> None)
      | _ -> Some state
    in
    let node_step state =
      match touched_node action with
      | None -> Some state
      | Some p -> (
          match Proc.Map.find_opt p node_automata with
          | None -> None
          | Some a -> (
              let pre_node = node state p in
              match a.Automaton.transition pre_node action with
              | Some post_node ->
                  Some
                    {
                      state with
                      nodes = Proc.Map.add p post_node state.nodes;
                      history =
                        update_history params pre_node post_node p
                          state.history;
                    }
              | None -> None))
    in
    (* Both participants must accept; for interface actions one side is the
       controller (its precondition gates the action) and the other is
       input-enabled. *)
    match vs_step state with
    | None -> None
    | Some state' -> node_step state'

let enabled params =
  let vsp = vs_params params in
  let vs_machine = Vs_machine.automaton vsp in
  let node_automata =
    List.map (fun p -> (p, Vstoto.automaton (node_params params p))) params.procs
  in
  fun state ->
    let vs_actions =
      List.map
        (fun a -> Sys_action.Vs a)
        (vs_machine.Automaton.enabled state.vs)
    in
    let node_actions =
      List.concat_map
        (fun (p, a) -> a.Automaton.enabled (node state p))
        node_automata
    in
    vs_actions @ node_actions

let automaton params =
  {
    Automaton.name = "VStoTO-system";
    initial = initial params;
    kind = Sys_action.system_kind ~procs:params.procs;
    enabled = enabled params;
    transition = transition params;
  }

let inject params ~values state prng =
  let bcast =
    match (Gcs_stdx.Prng.pick prng params.procs, Gcs_stdx.Prng.pick prng values) with
    | Some p, Some v -> [ Sys_action.Bcast (p, v) ]
    | _ -> []
  in
  let createviews =
    List.map
      (fun a -> Sys_action.Vs a)
      (Vs_machine.inject_createview (vs_params params) state.vs prng)
  in
  bcast @ createviews

(* ------------------------------------------------------------------ *)
(* Derived variables (Section 6).                                      *)

let allstate_entries params state =
  let case1 =
    List.filter_map
      (fun p ->
        let n = node state p in
        match n.Vstoto.current with
        | Some v -> Some (p, v.View.id, Vstoto.summary_of_state n)
        | None -> None)
      params.procs
  in
  let case2 =
    Pg_map.fold
      (fun (p, g) pending acc ->
        List.fold_left
          (fun acc msg ->
            match msg with
            | Msg.Summary x -> (p, g, x) :: acc
            | Msg.App _ | Msg.Batch _ -> acc)
          acc pending)
      state.vs.Vs_machine.pending []
  in
  let case3 =
    View_id.Map.fold
      (fun g entries acc ->
        List.fold_left
          (fun acc (msg, p) ->
            match msg with
            | Msg.Summary x -> (p, g, x) :: acc
            | Msg.App _ | Msg.Batch _ -> acc)
          acc entries)
      state.vs.Vs_machine.queue []
  in
  let case4 =
    List.concat_map
      (fun q ->
        let nq = node state q in
        match nq.Vstoto.current with
        | Some v ->
            Proc.Map.fold
              (fun p x acc -> (p, v.View.id, x) :: acc)
              nq.Vstoto.gotstate []
        | None -> [])
      params.procs
  in
  case1 @ case2 @ case3 @ case4

let allstate params state =
  List.map (fun (_, _, x) -> x) (allstate_entries params state)

let allcontent_pairs params state =
  List.concat_map
    (fun x -> Label.Map.bindings x.Summary.con)
    (allstate params state)

let allcontent params state =
  let rec go acc = function
    | [] -> Some acc
    | (l, v) :: rest -> (
        match Label.Map.find_opt l acc with
        | Some v' -> if Value.equal v v' then go acc rest else None
        | None -> go (Label.Map.add l v acc) rest)
  in
  go Label.Map.empty (allcontent_pairs params state)

let allconfirm params state =
  let confirms = List.map Summary.confirm (allstate params state) in
  Gcs_stdx.Seqx.lub ~equal:Label.equal confirms
