open Gcs_core
module Iface = Gcs_transport.Iface

type ('node, 'input, 'packet, 'out) handlers =
  ('node, 'input, 'packet, 'out) Iface.handlers

type ('packet, 'out) effects = ('packet, 'out) Iface.effect list

type ('config, 'node, 'input, 'packet, 'out) mutant = {
  name : string;
  doc : string;
  expected_checks : string list;
  instrument :
    'config ->
    ('node, 'input, 'packet, 'out) handlers ->
    ('node, 'input, 'packet, 'out) handlers;
}

let rewrite f (h : _ handlers) : _ handlers =
  {
    Iface.on_start =
      (fun me st ->
        let st', es = h.Iface.on_start me st in
        (st', f me st' es));
    on_input =
      (fun me ~now v st ->
        let st', es = h.Iface.on_input me ~now v st in
        (st', f me st' es));
    on_packet =
      (fun me ~now ~src p st ->
        let st', es = h.Iface.on_packet me ~now ~src p st in
        (st', f me st' es));
    on_timer =
      (fun me ~now ~id st ->
        let st', es = h.Iface.on_timer me ~now ~id st in
        (st', f me st' es));
  }

(* The latch lives in the closure, so each [instrument] call (one per
   executed run) is independent — required for fan-out on a domain
   pool. *)
let once f h =
  let fired = ref false in
  rewrite
    (fun me st es ->
      if !fired then es
      else
        match f me st es with
        | Some es' ->
            fired := true;
            es'
        | None -> es)
    h

let split_at p es =
  let rec go before = function
    | [] -> None
    | e :: rest when p e -> Some (List.rev before, e, rest)
    | e :: rest -> go (e :: before) rest
  in
  go [] es

type 'node progress = Outputs | Deliveries of ('node -> int)
type anchoring = Token_anchored | Serialized

module type S = sig
  val name : string

  type config
  type input
  type packet
  type node
  type out

  val configure : Gcs_impl.To_service.config -> config
  val procs : config -> Proc.t list
  val default_n : int
  val engine : delta:float -> Gcs_sim.Engine.config

  val handlers :
    ?metrics:Gcs_stdx.Metrics.t -> config -> (node, input, packet, out) handlers

  val initial : config -> Proc.t -> node
  val codec : packet Iface.codec
  val lift : ?dests:Proc.t list -> config -> Proc.t -> Value.t -> input
  val destinations : config -> input -> Proc.t list
  val progress : node progress
  val completes_under_faults : bool
  val batching : bool
  val anchoring : anchoring
  val client_trace : out Timed.t -> Value.t To_action.t Timed.t
  val settle : config -> stabilization:float -> workload_end:float -> float
  val slack : delta:float -> float

  val verdict :
    config ->
    faulty:bool ->
    until:float ->
    workload:(float * Proc.t * input) list ->
    out Timed.t ->
    node Proc.Map.t ->
    (string * string) option

  val transition_features : config -> Proc.t -> node -> node -> string list
  val snapshot_point : node -> node -> bool
  val snapshot : node -> string
  val counter_names : string list
  val counter_tag : string
  val fuzzy_tag : string
end

type t = (module S)

type ('c, 'n, 'i, 'p, 'o) s =
  (module S
     with type config = 'c
      and type node = 'n
      and type input = 'i
      and type packet = 'p
      and type out = 'o)

type tagged =
  | Tagged : ('c, 'n, 'i, 'p, 'o) s * ('c, 'n, 'i, 'p, 'o) mutant -> tagged

let name (module S : S) = S.name
let mutant_name (Tagged (_, m)) = m.name
let mutant_doc (Tagged (_, m)) = m.doc
let mutant_checks (Tagged (_, m)) = m.expected_checks
let mutant_service (Tagged ((module S), _)) : t = (module S)

let tag s mutants = List.map (fun m -> Tagged (s, m)) mutants

let check_mutant service m =
  let owner = name (mutant_service m) in
  if not (String.equal owner (name service)) then
    invalid_arg
      (Printf.sprintf "mutant %s belongs to service %s, not %s" (mutant_name m)
         owner (name service))

let sim (module S : S) ~delta = Gcs_sim.Backend.of_config (S.engine ~delta)

let run (type c n i p o) ((module S) : (c, n, i, p, o) s) ?mutant ?metrics
    ?observe ?stop ~backend config ~workload ~failures ~until ~seed =
  let (module B : Iface.BACKEND) = backend in
  let handlers = S.handlers ?metrics config in
  let handlers =
    match mutant with Some m -> m.instrument config handlers | None -> handlers
  in
  let result =
    B.run ?metrics ?observe ?stop S.codec ~procs:(S.procs config) ~handlers
      ~init:(S.initial config) ~inputs:workload ~failures ~until ~seed
  in
  Option.iter
    (fun metrics ->
      Gcs_impl.To_service.record_to_metrics metrics
        (S.client_trace result.Iface.trace))
    metrics;
  result

let tally trace =
  List.fold_left
    (fun (b, d) (_, a) ->
      match a with
      | To_action.Bcast _ -> (b + 1, d)
      | To_action.Brcv _ -> (b, d + 1)
      | To_action.To_order _ -> (b, d))
    (0, 0) (Timed.actions trace)

let drained (type c n i p o) ((module S) : (c, n, i, p, o) s) config ~workload
    ~after =
  let procs = S.procs config in
  let slots = 1 + List.fold_left max 0 procs in
  let expected = Array.make slots 0 in
  List.iter
    (fun (_, _, input) ->
      List.iter
        (fun p -> expected.(p) <- expected.(p) + 1)
        (S.destinations config input))
    workload;
  match S.progress with
  | Outputs ->
      let total = List.length workload + Array.fold_left ( + ) 0 expected in
      (None, fun ~now ~outputs -> now > after && outputs >= total)
  | Deliveries delivered ->
      (* One slot per node, written only by that node's handlers; Atomic
         keeps the slots race-free on the bus, where nodes are domains. *)
      let progress = Array.init slots (fun _ -> Atomic.make 0) in
      let observe p _pre post =
        Gcs_stdx.Atomicx.store_max progress.(p) (delivered post)
      in
      let stop ~now ~outputs:_ =
        now > after
        && List.for_all
             (fun p -> Atomic.get progress.(p) >= expected.(p))
             procs
      in
      (Some observe, stop)

let bucket n =
  if n <= 0 then 0
  else if n <= 3 then n
  else if n < 8 then 4
  else if n < 16 then 8
  else if n < 32 then 16
  else if n < 128 then 32
  else 128
