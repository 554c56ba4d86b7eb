(* What a run's public timed trace says about each client value: when it
   was delivered where (client level, every backend), the stages it went
   through (VStoTO), and how long a partition stopped delivery. *)

open Gcs_core
open Gcs_impl

(* Every generated value reads "<id>:<filler>", ids dense from 0. *)
let id_of_value v =
  match String.index_opt v ':' with
  | None -> -1
  | Some i -> (
      match int_of_string_opt (String.sub v 0 i) with
      | Some id when id >= 0 -> id
      | _ -> -1)

(* ---------------------------------------------------------------- *)
(* Client level *)

type delivery = { id : int; dst : Proc.t; time : float }

type client = {
  bcast : float array;  (** first bcast time per id; nan if never *)
  deliveries : delivery list;  (** trace (= time) order *)
  strays : int;  (** deliveries of a value the generator never made *)
}

let client ~values actions =
  let bcast = Array.make values Float.nan in
  let valid id = id >= 0 && id < values in
  let strays = ref 0 in
  let deliveries =
    List.fold_left
      (fun acc (time, action) ->
        match action with
        | To_action.Bcast (_, v) ->
            let id = id_of_value v in
            if valid id && Float.is_nan bcast.(id) then bcast.(id) <- time;
            acc
        | To_action.Brcv { dst; value; _ } ->
            let id = id_of_value value in
            if valid id then { id; dst; time } :: acc
            else begin
              incr strays;
              acc
            end
        | To_action.To_order _ -> acc)
      [] actions
  in
  { bcast; deliveries = List.rev deliveries; strays = !strays }

(* due -> brcv of every (value, member) delivery. *)
let latencies ~due c =
  Stats.Samples.of_list (List.map (fun d -> d.time -. due.(d.id)) c.deliveries)

(* due -> bcast: how late the generator handed each value over. *)
let submit_lags ~due c =
  let s = Stats.Samples.create () in
  Array.iteri
    (fun id t -> if not (Float.is_nan t) then Stats.Samples.add s (t -. due.(id)))
    c.bcast;
  s

(* Values that did not reach every one of [members]. *)
let undelivered ~members c =
  let count = Array.make (Array.length c.bcast) 0 in
  List.iter (fun d -> count.(d.id) <- count.(d.id) + 1) c.deliveries;
  Array.fold_left (fun acc k -> if k < members then acc + 1 else acc) 0 count

(* Deliveries per second from the first due time to the last delivery. *)
let rate ~due c =
  let first = Array.fold_left Float.min infinity due in
  let last = List.fold_left (fun m d -> Float.max m d.time) neg_infinity c.deliveries in
  Stats.ratio (float_of_int (List.length c.deliveries)) (last -. first)

(* ---------------------------------------------------------------- *)
(* VStoTO stages *)

let stage_names = [| "lag"; "staging"; "ring"; "safe"; "confirm" |]

(* One delivery's stage boundaries: due, bcast, gpsnd, gprcv, safe, brcv.
   A boundary the trace lacks, or that falls outside [previous, brcv],
   is nan: its stage is missing and its time folds into the next stage
   that is present, so the stages always sum to brcv - due. *)
type staged = { value : int; member : Proc.t; marks : float array }

let normalize marks =
  let brcv = marks.(5) in
  let prev = ref marks.(0) in
  for i = 1 to 4 do
    let t = marks.(i) in
    if Float.is_nan t || t < !prev || t > brcv then marks.(i) <- Float.nan
    else prev := t
  done;
  marks

(* Durations of the five stages, in [stage_names] order. *)
let stages s =
  let prev = ref s.marks.(0) in
  Array.init 5 (fun i ->
      let t = s.marks.(i + 1) in
      if Float.is_nan t then 0.0
      else begin
        let d = t -. !prev in
        prev := t;
        d
      end)

let lifecycle ~due ~members (trace : To_service.out Timed.t) =
  let values = Array.length due in
  let per_value () = Array.make values Float.nan in
  let per_pair () = Array.make (values * members) Float.nan in
  let bcast = per_value () and gpsnd = per_value () in
  let gprcv = per_pair () and safe = per_pair () in
  let first arr i t = if Float.is_nan arr.(i) then arr.(i) <- t in
  let ids msg =
    List.filter_map
      (fun (_, v) ->
        let id = id_of_value v in
        if id >= 0 && id < values then Some id else None)
      (Msg.app_entries msg)
  in
  let pair id m = (id * members) + m in
  List.fold_left
    (fun acc (time, out) ->
      match out with
      | To_service.Client (To_action.Bcast (_, v)) ->
          let id = id_of_value v in
          if id >= 0 && id < values then first bcast id time;
          acc
      | To_service.Client (To_action.Brcv { dst; value; _ }) ->
          let id = id_of_value value in
          if id < 0 || id >= values || dst >= members then acc
          else
            let k = pair id dst in
            {
              value = id;
              member = dst;
              marks =
                normalize [| due.(id); bcast.(id); gpsnd.(id); gprcv.(k); safe.(k); time |];
            }
            :: acc
      | To_service.Client (To_action.To_order _) -> acc
      | To_service.Vs_layer (Vs_action.Gpsnd { msg; _ }) ->
          List.iter (fun id -> first gpsnd id time) (ids msg);
          acc
      | To_service.Vs_layer (Vs_action.Gprcv { dst; msg; _ }) ->
          if dst < members then
            List.iter (fun id -> first gprcv (pair id dst) time) (ids msg);
          acc
      | To_service.Vs_layer (Vs_action.Safe { dst; msg; _ }) ->
          if dst < members then
            List.iter (fun id -> first safe (pair id dst) time) (ids msg);
          acc
      | To_service.Vs_layer
          (Vs_action.Newview _ | Vs_action.Createview _ | Vs_action.Vs_order _) ->
          acc)
    [] (Timed.actions trace)
  |> List.rev

(* ---------------------------------------------------------------- *)
(* Partitions *)

(* One partition cycle: [isolated] is cut off from the rest at [cut] and
   rejoins at [heal]; the cycle's window closes at [until] (the next cut,
   or the end of the load). *)
type cycle = { isolated : Proc.t; cut : float; heal : float; until : float }

(* The longest gap between consecutive deliveries at a majority member,
   over the gaps that end inside the window (after the cut, by [until]):
   how long the side that kept a quorum went without service. A gap that
   runs past [until] belongs to the next cycle. *)
let outage ~procs cycle c =
  List.fold_left
    (fun worst m ->
      if Proc.equal m cycle.isolated then worst
      else
        let times =
          List.filter_map
            (fun d -> if Proc.equal d.dst m then Some d.time else None)
            c.deliveries
        in
        let rec go worst = function
          | a :: (b :: _ as rest) ->
              go
                (if b > cycle.cut && b <= cycle.until then Float.max worst (b -. a)
                 else worst)
                rest
          | [ _ ] | [] -> worst
        in
        go worst times)
    0.0 procs

(* From the heal until the isolated member has delivered every value that
   was due before the heal. *)
let catchup ~due cycle c =
  List.fold_left
    (fun latest d ->
      if Proc.equal d.dst cycle.isolated && due.(d.id) < cycle.heal then
        Float.max latest (d.time -. cycle.heal)
      else latest)
    0.0 c.deliveries
