open Gcs_core
open Gcs_sim

type config = {
  procs : Proc.t list;
  p0 : Proc.t list;
  pi : float;
  mu : float;
  delta : float;
}

type protocol = Three_round | One_round

(* Timer identifiers. *)
let timer_token_timeout = 1
let timer_probe = 2
let timer_collect = 3
let timer_launch = 4

type 'm state = {
  me : Proc.t;
  current : View.t option;
  installs : int;
  max_num_seen : int;
  proposed : View_id.t option;
  forming : (View_id.t * Proc.Set.t) option;
  last_initiation : float;
  outbuf : 'm Gcs_stdx.Tape.t;
      (* client messages of the current view, send order; a tape so the
         per-send append and the per-rotation suffix read are O(1) *)
  delivered_count : int;
  safe_count : int;
  stored_token : 'm Wire.token option;
  last_heard : float Proc.Map.t;  (* for the one-round membership estimate *)
  max_token_entries : int;  (* high-water mark, for the pruning ablation *)
  token_outstanding : bool;
      (* the leader launched a token that has not yet returned; guards
         against a stale launch timer forking the per-view order *)
  last_launch : float;
  taken : int;
      (* outbuf length at the last token visit: the send that grows the
         outbuf past it is the first no token has collected, and asks the
         leader for a launch *)
  demand : bool;
      (* leader: a [Want] arrived while the token was in flight, so the
         token is relaunched on its return even if it comes back empty *)
}

let initial config me =
  let in_p0 = List.mem me config.p0 in
  {
    me;
    current = (if in_p0 then Some (View.initial config.p0) else None);
    installs = 0;
    max_num_seen = 0;
    proposed = None;
    forming = None;
    last_initiation = neg_infinity;
    outbuf = Gcs_stdx.Tape.empty ();
    delivered_count = 0;
    safe_count = 0;
    stored_token = None;
    last_heard = Proc.Map.empty;
    max_token_entries = 0;
    token_outstanding = false;
    last_launch = neg_infinity;
    taken = 0;
    demand = false;
  }

let current_view state = state.current
let views_installed state = state.installs
let uncollected state = Gcs_stdx.Tape.length state.outbuf - state.taken

let stored_token_entries state =
  Option.map (fun t -> List.length t.Wire.entries) state.stored_token

let max_token_entries state = state.max_token_entries

let n_of config = List.length config.procs

let token_timeout config =
  config.pi +. (float_of_int (n_of config + 2) *. config.delta)

let paper_b config =
  let n = float_of_int (n_of config) in
  (9.0 *. config.delta)
  +. max (config.pi +. ((n +. 3.0) *. config.delta)) config.mu

let paper_d config =
  config.pi *. 2.0 +. (float_of_int (n_of config) *. config.delta)

let impl_b config = paper_b config +. (8.0 *. config.delta)

let impl_d config =
  (3.0 *. (config.pi +. (float_of_int (n_of config) *. config.delta)))
  +. (2.0 *. config.delta)

let formation_debounce config = 4.0 *. config.delta

let leader_of (view : View.t) = Proc.Set.min_elt view.View.set

let ring_successor (view : View.t) me =
  match Proc.Set.elements view.View.set with
  | [] ->
      (* Views are built from nonempty member sets; an empty one means
         the membership protocol handed us a corrupt view. *)
      invalid_arg
        (Printf.sprintf
           "Vs_node.ring_successor: invariant violation at proc %d: \
            successor requested in an empty view"
           me)
  | smallest :: _ as members ->
      let rec find = function
        | [] -> smallest (* wrap to the smallest *)
        | m :: rest -> if m > me then m else find rest
      in
      find members

let is_member state p =
  match state.current with Some v -> View.mem p v | None -> false

let seen_num state num = { state with max_num_seen = max state.max_num_seen num }

let heard state ~now p =
  { state with last_heard = Proc.Map.add p now state.last_heard }

(* The one-round membership estimate: self plus every processor heard from
   within the last two probe periods. *)
let estimated_members config ~now state =
  state.me
  :: List.filter
       (fun p ->
         (not (Proc.equal p state.me))
         &&
         match Proc.Map.find_opt p state.last_heard with
         | Some t -> now -. t <= 2.0 *. config.mu
         | None -> false)
       config.procs

(* ---------------- metrics ---------------- *)

(* The registry is optional at every layer: a [None] keeps the hot path
   allocation-free, and a [Some m] is the per-run registry the engine was
   given, shared by all processors of the run. *)
let count metrics name =
  match metrics with None -> () | Some m -> Gcs_stdx.Metrics.incr m name

let observe metrics name v =
  match metrics with
  | None -> ()
  | Some m -> Gcs_stdx.Metrics.observe m name v

(* ---------------- membership protocol ---------------- *)

let maybe_initiate ?metrics ?(protocol = Three_round) config ~now state =
  if Option.is_some state.forming then (state, [])
  else if now -. state.last_initiation < formation_debounce config then
    (state, [])
  else
    let () = count metrics "vs.membership_rounds" in
    let num = state.max_num_seen + 1 in
    let viewid = View_id.make ~num ~origin:state.me in
    match protocol with
    | Three_round ->
        let state =
          {
            state with
            max_num_seen = num;
            proposed = Some viewid;
            forming = Some (viewid, Proc.Set.singleton state.me);
            last_initiation = now;
          }
        in
        let calls =
          List.filter_map
            (fun p ->
              if Proc.equal p state.me then None
              else
                Some (Engine.Send { dst = p; packet = Wire.Newgroup { viewid } }))
            config.procs
        in
        ( state,
          calls
          @ [
              Engine.Set_timer { id = timer_collect; delay = 2.0 *. config.delta };
            ] )
    | One_round ->
        (* Footnote 7 of Section 8: announce the membership directly from
           the local connectivity estimate — one round, but inaccurate
           estimates cause extra view changes, so stabilization is
           slower. *)
        let members = estimated_members config ~now state in
        let view = View.make viewid members in
        let state =
          {
            state with
            max_num_seen = num;
            proposed = Some viewid;
            last_initiation = now;
          }
        in
        ( state,
          List.map
            (fun p -> Engine.Send { dst = p; packet = Wire.ViewMsg { view } })
            members )

(* ---------------- token processing ---------------- *)

let map_get_zero m p =
  match Proc.Map.find_opt p m with Some x -> x | None -> 0

let process_token ?metrics config ~now ~launching state (tok : 'm Wire.token) =
  let view =
    match state.current with
    | Some v -> v
    | None ->
        (* Every caller matches on [state.current] first, so a [None] here
           is a protocol-logic bug; report which processor and when
           instead of an anonymous [Option.get] crash. *)
        invalid_arg
          (Printf.sprintf
             "Vs_node: invariant violation at proc %d, t=%.3f: processing \
              token for view %s with no current view"
             state.me now
             (Format.asprintf "%a" View_id.pp tok.Wire.viewid))
  in
  let members = view.View.set in
  (* (1) append my unappended client messages: the suffix of the outbuf
     tape past what previous rotations already appended *)
  let already = map_get_zero tok.Wire.appended state.me in
  let to_append = Gcs_stdx.Tape.drop already state.outbuf in
  let new_entries, next_idx =
    Gcs_stdx.Tape.fold_left
      (fun (acc, idx) msg ->
        ({ Wire.idx; src = state.me; msg } :: acc, idx + 1))
      ([], tok.Wire.next_idx) to_append
  in
  if not (Gcs_stdx.Tape.is_empty to_append) then
    observe metrics "vs.batch_size"
      (float_of_int (Gcs_stdx.Tape.length to_append));
  let entries = tok.Wire.entries @ List.rev new_entries in
  let appended =
    Proc.Map.add state.me (Gcs_stdx.Tape.length state.outbuf) tok.Wire.appended
  in
  (* (2) deliver entries beyond my delivery point *)
  let deliverable =
    List.filter (fun e -> e.Wire.idx > state.delivered_count) entries
  in
  let deliveries =
    List.map
      (fun e ->
        Engine.Output
          (Vs_action.Gprcv { src = e.Wire.src; dst = state.me; msg = e.Wire.msg }))
      deliverable
  in
  let delivered_count =
    List.fold_left (fun acc e -> max acc e.Wire.idx) state.delivered_count
      deliverable
  in
  let delivered = Proc.Map.add state.me delivered_count tok.Wire.delivered in
  (* (3) safe notifications up to the minimum delivery point *)
  let floor =
    Proc.Set.fold (fun r acc -> min acc (map_get_zero delivered r)) members
      max_int
  in
  let newly_safe =
    List.filter
      (fun e -> e.Wire.idx > state.safe_count && e.Wire.idx <= floor)
      entries
  in
  let safes =
    List.map
      (fun e ->
        Engine.Output
          (Vs_action.Safe { src = e.Wire.src; dst = state.me; msg = e.Wire.msg }))
      newly_safe
  in
  let safe_count = max state.safe_count (min floor (next_idx - 1)) in
  let safe_acked = Proc.Map.add state.me safe_count tok.Wire.safe_acked in
  (* (4) prune entries that every member has reported safe *)
  let prune_floor =
    Proc.Set.fold (fun r acc -> min acc (map_get_zero safe_acked r)) members
      max_int
  in
  let entries = List.filter (fun e -> e.Wire.idx > prune_floor) entries in
  let tok =
    { tok with Wire.entries; next_idx; delivered; safe_acked; appended }
  in
  let state =
    {
      state with
      delivered_count;
      safe_count;
      max_token_entries = max state.max_token_entries (List.length entries);
      taken = Gcs_stdx.Tape.length state.outbuf;
    }
  in
  (* (5) forward, or absorb at the leader *)
  let am_leader = Proc.equal (leader_of view) state.me in
  let rearm =
    Engine.Set_timer { id = timer_token_timeout; delay = token_timeout config }
  in
  let forward state =
    let next = ring_successor view state.me in
    ( state,
      deliveries @ safes
      @ [ rearm; Engine.Send { dst = next; packet = Wire.Token tok } ] )
  in
  if am_leader && not launching then (
    count metrics "vs.token_roundtrips";
    let relaunch = state.demand || not (List.is_empty entries) in
    let state = { state with demand = false } in
    if relaunch then (
      (* Entries not yet safe everywhere: relaunch at once, since every
         member must see them on the next pass before they can become
         safe and be pruned; within three rotations of the last pickup
         the token is empty and falls back to the heartbeat below. A
         [Want] that arrived while the token was out relaunches it too:
         the member that sent it may have been passed before its message
         was there. *)
      count metrics "vs.tokens_launched";
      forward { state with last_launch = now })
    else
      (* Nothing pending: absorb, and launch again pi after the last
         launch — the heartbeat the token-loss timeout relies on. *)
      let delay = max (config.delta /. 100.0) (state.last_launch +. config.pi -. now) in
      ( { state with stored_token = Some tok; token_outstanding = false },
        deliveries @ safes
        @ [ rearm; Engine.Set_timer { id = timer_launch; delay } ] ))
  else forward state

let launch_token ?metrics config ~now state =
  match state.current with
  | None -> (state, [])
  | Some view ->
      if
        (not (Proc.equal (leader_of view) state.me))
        || state.token_outstanding
      then (state, [])
      else
        let tok =
          match state.stored_token with
          | Some t when View_id.equal t.Wire.viewid view.View.id -> t
          | _ -> Wire.fresh_token view.View.id
        in
        count metrics "vs.tokens_launched";
        let state =
          {
            state with
            stored_token = None;
            token_outstanding = true;
            last_launch = now;
          }
        in
        process_token ?metrics config ~now ~launching:true state tok

(* The leader's answer to a [Want], its own or a member's: launch a
   resting token now, or relaunch an outstanding one when it returns.
   The launch goes through the launch timer at delay 0, never inside the
   send that asked for it: a launch emits gprcv/safe outputs, and a layer
   that hands sends in through [client_send] (the TO service's drain)
   passes that call's effects on without feeding them back. *)
let want state viewid =
  match state.current with
  | Some view
    when View_id.equal view.View.id viewid
         && Proc.equal (leader_of view) state.me ->
      if state.token_outstanding then ({ state with demand = true }, [])
      else (state, [ Engine.Set_timer { id = timer_launch; delay = 0.0 } ])
  | _ -> (state, [])

(* ---------------- view installation ---------------- *)

let install ?metrics config ~now state (view : View.t) =
  count metrics "vs.views_installed";
  let state =
    {
      state with
      current = Some view;
      installs = state.installs + 1;
      outbuf = Gcs_stdx.Tape.empty ();
      delivered_count = 0;
      safe_count = 0;
      stored_token = None;
      token_outstanding = false;
      taken = 0;
      demand = false;
      forming = None;
    }
  in
  let cancel_launch = Engine.Cancel_timer { id = timer_launch } in
  let announce = Engine.Output (Vs_action.Newview { proc = state.me; view }) in
  let rearm =
    Engine.Set_timer { id = timer_token_timeout; delay = token_timeout config }
  in
  if Proc.equal (leader_of view) state.me then
    let state, launch_effects = launch_token ?metrics config ~now state in
    (state, (cancel_launch :: announce :: rearm :: launch_effects))
  else (state, [ cancel_launch; announce; rearm ])

(* ---------------- handlers ---------------- *)

let probe_targets ?(protocol = Three_round) config state =
  match protocol with
  | One_round ->
      (* Everyone probes everyone, so connectivity estimates converge
         within one probe period. *)
      List.filter (fun p -> not (Proc.equal p state.me)) config.procs
  | Three_round -> (
      match state.current with
      | None -> List.filter (fun p -> not (Proc.equal p state.me)) config.procs
      | Some view ->
          if Proc.equal (leader_of view) state.me then
            List.filter (fun p -> not (View.mem p view)) config.procs
          else [])

let on_start ?metrics config me state =
  ignore me;
  let probe =
    Engine.Set_timer
      {
        id = timer_probe;
        delay = config.mu +. (float_of_int state.me *. config.delta *. 0.01);
      }
  in
  match state.current with
  | None -> (state, [ probe ])
  | Some view ->
      let rearm =
        Engine.Set_timer
          { id = timer_token_timeout; delay = token_timeout config }
      in
      if Proc.equal (leader_of view) state.me then
        let state, effects = launch_token ?metrics config ~now:0.0 state in
        (state, (probe :: rearm :: effects))
      else (state, [ probe; rearm ])

let on_input _config me ~now:_ msg state =
  ignore me;
  let out = Engine.Output (Vs_action.Gpsnd { sender = state.me; msg }) in
  match state.current with
  | None -> (state, [ out ])
  | Some view ->
      let first = uncollected state = 0 in
      let state = { state with outbuf = Gcs_stdx.Tape.snoc state.outbuf msg } in
      let leader = leader_of view in
      if not first then (state, [ out ])
      else if Proc.equal leader state.me then
        let state, effects = want state view.View.id in
        (state, out :: effects)
      else
        ( state,
          [ out; Engine.Send { dst = leader; packet = Wire.Want { viewid = view.View.id } } ]
        )

let on_packet ?metrics ?(protocol = Three_round) config me ~now ~src packet state =
  ignore me;
  let state = heard state ~now src in
  match packet with
  | Wire.Newgroup { viewid } ->
      let state = seen_num state viewid.View_id.num in
      if View_id.lt_opt state.proposed (Some viewid) then
        ( { state with proposed = Some viewid },
          [ Engine.Send { dst = src; packet = Wire.Accept { viewid } } ] )
      else
        let proposed_num =
          match state.proposed with Some g -> g.View_id.num | None -> 0
        in
        ( state,
          [ Engine.Send { dst = src; packet = Wire.Nack { viewid; proposed_num } } ]
        )
  | Wire.Accept { viewid } -> (
      match state.forming with
      | Some (fid, responders) when View_id.equal fid viewid ->
          ({ state with forming = Some (fid, Proc.Set.add src responders) }, [])
      | _ -> (state, []))
  | Wire.Nack { viewid = _; proposed_num } -> (seen_num state proposed_num, [])
  | Wire.ViewMsg { view } ->
      let state = seen_num state view.View.id.View_id.num in
      let current_id =
        match state.current with Some v -> Some v.View.id | None -> None
      in
      if
        View.mem state.me view
        && View_id.lt_opt current_id (Some view.View.id)
        && View_id.le_opt state.proposed (Some view.View.id)
      then install ?metrics config ~now state view
      else (state, [])
  | Wire.Token tok -> (
      let state = seen_num state tok.Wire.viewid.View_id.num in
      match state.current with
      | Some view when View_id.equal view.View.id tok.Wire.viewid ->
          process_token ?metrics config ~now ~launching:false state tok
      | _ -> (state, []))
  | Wire.Probe { viewid_num } ->
      let state = seen_num state viewid_num in
      if is_member state src then (state, [])
      else maybe_initiate ?metrics ~protocol config ~now state
  | Wire.Want { viewid } -> want state viewid

let on_timer ?metrics ?(protocol = Three_round) config me ~now ~id state =
  ignore me;
  if id = timer_token_timeout then
    match state.current with
    | None -> (state, [])
    | Some _ ->
        let state, effects = maybe_initiate ?metrics ~protocol config ~now state in
        ( state,
          effects
          @ [
              Engine.Set_timer
                { id = timer_token_timeout; delay = token_timeout config };
            ] )
  else if id = timer_probe then
    let probes =
      List.map
        (fun p ->
          Engine.Send
            { dst = p; packet = Wire.Probe { viewid_num = state.max_num_seen } })
        (probe_targets ~protocol config state)
    in
    (state, probes @ [ Engine.Set_timer { id = timer_probe; delay = config.mu } ])
  else if id = timer_collect then
    match state.forming with
    | None -> (state, [])
    | Some (viewid, responders) ->
        let view = { View.id = viewid; set = responders } in
        let state = { state with forming = None } in
        let announcements =
          List.map
            (fun p -> Engine.Send { dst = p; packet = Wire.ViewMsg { view } })
            (Proc.Set.elements responders)
        in
        (state, announcements)
  else if id = timer_launch then launch_token ?metrics config ~now state
  else (state, [])

let handlers ?metrics ?(protocol = Three_round) config =
  {
    Engine.on_start = on_start ?metrics config;
    on_input = on_input config;
    on_packet = on_packet ?metrics ~protocol config;
    on_timer = on_timer ?metrics ~protocol config;
  }

let client_send config me msg state = on_input config me ~now:0.0 msg state
