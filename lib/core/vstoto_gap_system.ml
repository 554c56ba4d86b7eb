open Gcs_automata

type state = {
  vs : Msg.t Vs_gap_machine.state;
  nodes : Vstoto.state Proc.Map.t;
}

type params = {
  procs : Proc.t list;
  p0 : Proc.t list;
  quorums : Quorum.t;
}

let make_params ~procs ~p0 ~quorums () = { procs; p0; quorums }

let vs_params params =
  { Vs_gap_machine.procs = params.procs; p0 = params.p0; equal_msg = Msg.equal }

let node_params params p =
  {
    Vstoto.me = p;
    p0 = params.p0;
    quorums = params.quorums;
    literal_figure_10 = false;
  }

let node state p = Proc.Map.find p state.nodes

let initial params =
  {
    vs = Vs_gap_machine.initial (vs_params params);
    nodes =
      List.fold_left
        (fun acc p ->
          Proc.Map.add p (Vstoto.initial (node_params params p)) acc)
        Proc.Map.empty params.procs;
  }

let touched_node action =
  match action with
  | Sys_action.Bcast (p, _) | Sys_action.Label_act (p, _) | Sys_action.Confirm p
    ->
      Some p
  | Sys_action.Brcv { dst; _ } -> Some dst
  | Sys_action.Vs (Vs_action.Gpsnd { sender; _ }) -> Some sender
  | Sys_action.Vs (Vs_action.Gprcv { dst; _ })
  | Sys_action.Vs (Vs_action.Safe { dst; _ }) ->
      Some dst
  | Sys_action.Vs (Vs_action.Newview { proc; _ }) -> Some proc
  | Sys_action.Vs (Vs_action.Createview _) | Sys_action.Vs (Vs_action.Vs_order _)
    ->
      None

let transition params =
  let vsp = vs_params params in
  let vs_machine = Vs_gap_machine.automaton vsp in
  let node_automata =
    List.fold_left
      (fun acc p ->
        Proc.Map.add p (Vstoto.automaton (node_params params p)) acc)
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
              match a.Automaton.transition (node state p) action with
              | Some post -> Some { state with nodes = Proc.Map.add p post state.nodes }
              | None -> None))
    in
    match vs_step state with None -> None | Some state' -> node_step state'

let enabled params =
  let vsp = vs_params params in
  let vs_machine = Vs_gap_machine.automaton vsp in
  let node_automata =
    List.map (fun p -> (p, Vstoto.automaton (node_params params p))) params.procs
  in
  fun state ->
    List.map (fun a -> Sys_action.Vs a) (vs_machine.Automaton.enabled state.vs)
    @ List.concat_map
        (fun (p, a) -> a.Automaton.enabled (node state p))
        node_automata

let automaton params =
  {
    Automaton.name = "VStoTO-over-VSgap";
    initial = initial params;
    kind = Sys_action.system_kind ~procs:params.procs;
    enabled = enabled params;
    transition = transition params;
  }

let inject params ~values state prng =
  let bcast =
    match
      (Gcs_stdx.Prng.pick prng params.procs, Gcs_stdx.Prng.pick prng values)
    with
    | Some p, Some v -> [ Sys_action.Bcast (p, v) ]
    | _ -> []
  in
  bcast
  @ List.map
      (fun a -> Sys_action.Vs a)
      (Vs_gap_machine.inject_createview (vs_params params) state.vs prng)
