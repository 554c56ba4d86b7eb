(* The timing layer of a traced run, applied from outside the library: a
   backend that wraps the handlers and the packet codec it is given, then
   hands them to the real backend.

   Every handler call and codec call runs in the domain of the node that
   makes it, so each node domain keeps its own accumulator in [Domain.DLS]
   and nothing on the hot path is shared. The accumulators register
   themselves once (a CAS push) and are read after [run] returns, when the
   bus has joined every node domain. *)

open Gcs_transport
module Samples = Stats.Samples

type kind = Start | Input | Packet | Timer | Flush

let kind_index = function
  | Start -> 0
  | Input -> 1
  | Packet -> 2
  | Timer -> 3
  | Flush -> 4

let kind_name = function
  | Start -> "start"
  | Input -> "input"
  | Packet -> "packet"
  | Timer -> "timer"
  | Flush -> "flush"

type span = { node : int; kind : kind; start : float; stop : float }

(* Handler spans kept per node when a spans file is requested; past this
   the run still measures but stops recording spans. *)
let max_spans_per_node = 200_000

type acc = {
  mutable node : int;
  busy : float array;  (** seconds inside handlers, by [kind_index] *)
  calls : int array;
  handler : Samples.t;  (** every handler call's duration *)
  transit : Samples.t;  (** stamp at encode to start of decode *)
  late : Samples.t;  (** timer firing past its deadline *)
  deadlines : (int, float) Hashtbl.t;
  flush_ids : (int, unit) Hashtbl.t;
      (** timer ids armed by [on_input]: the service's staging flush *)
  mutable enc_s : float;
  mutable dec_s : float;
  mutable bytes : int;
  mutable largest : string;  (** the largest encoded frame, unstamped *)
  mutable spans : span list;
  mutable span_count : int;
}

let fresh () =
  {
    node = -1;
    busy = Array.make 5 0.0;
    calls = Array.make 5 0;
    handler = Samples.create ();
    transit = Samples.create ();
    late = Samples.create ();
    deadlines = Hashtbl.create 8;
    flush_ids = Hashtbl.create 2;
    enc_s = 0.0;
    dec_s = 0.0;
    bytes = 0;
    largest = "";
    spans = [];
    span_count = 0;
  }

type t = {
  clock : Clock.t;
  keep_spans : bool;
  accs : acc list Atomic.t;
  key : acc Domain.DLS.key;
  mutable origin : float;  (** probe time at which the inner run began *)
  mutable wall : float;  (** seconds the inner run took *)
}

let create ~keep_spans () =
  let accs = Atomic.make [] in
  let rec register a =
    let seen = Atomic.get accs in
    if not (Atomic.compare_and_set accs seen (a :: seen)) then register a
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let a = fresh () in
        register a;
        a)
  in
  { clock = Clock.create (); keep_spans; accs; key; origin = 0.0; wall = 0.0 }

let acc t = Domain.DLS.get t.key

(* ---------------------------------------------------------------- *)
(* Handlers *)

let call t a kind me f =
  a.node <- me;
  let start = Clock.now t.clock in
  let ((_, effects) as result) = f () in
  let stop = Clock.now t.clock in
  let i = kind_index kind in
  a.busy.(i) <- a.busy.(i) +. (stop -. start);
  a.calls.(i) <- a.calls.(i) + 1;
  Samples.add a.handler (stop -. start);
  if t.keep_spans && a.span_count < max_spans_per_node then begin
    a.spans <- { node = me; kind; start; stop } :: a.spans;
    a.span_count <- a.span_count + 1
  end;
  List.iter
    (function
      | Iface.Set_timer { id; delay } -> (
          Hashtbl.replace a.deadlines id (stop +. delay);
          match kind with
          | Input -> Hashtbl.replace a.flush_ids id ()
          | Start | Packet | Timer | Flush -> ())
      | Iface.Cancel_timer { id } -> Hashtbl.remove a.deadlines id
      | Iface.Send _ | Iface.Output _ -> ())
    effects;
  result

let wrap_handlers t (h : ('s, 'i, 'p, 'o) Iface.handlers) :
    ('s, 'i, 'p, 'o) Iface.handlers =
  {
    Iface.on_start = (fun me s -> call t (acc t) Start me (fun () -> h.on_start me s));
    on_input =
      (fun me ~now v s -> call t (acc t) Input me (fun () -> h.on_input me ~now v s));
    on_packet =
      (fun me ~now ~src p s ->
        call t (acc t) Packet me (fun () -> h.on_packet me ~now ~src p s));
    on_timer =
      (fun me ~now ~id s ->
        let a = acc t in
        (match Hashtbl.find_opt a.deadlines id with
        | Some deadline ->
            Hashtbl.remove a.deadlines id;
            Samples.add a.late (Clock.now t.clock -. deadline)
        | None -> ());
        let kind = if Hashtbl.mem a.flush_ids id then Flush else Timer in
        call t a kind me (fun () -> h.on_timer me ~now ~id s));
  }

(* ---------------------------------------------------------------- *)
(* Codec: the frame is an 8-byte little-endian send stamp (probe clock,
   float bits) followed by the inner codec's bytes. *)

let stamp_bytes = 8

let stamp_codec t (c : 'p Iface.codec) : 'p Iface.codec =
  let enc p =
    let a = acc t in
    let start = Clock.now t.clock in
    let body = c.Iface.enc p in
    let stop = Clock.now t.clock in
    let len = String.length body in
    a.enc_s <- a.enc_s +. (stop -. start);
    a.bytes <- a.bytes + len;
    if len > String.length a.largest then a.largest <- body;
    let frame = Bytes.create (stamp_bytes + len) in
    Bytes.set_int64_le frame 0 (Int64.bits_of_float stop);
    Bytes.blit_string body 0 frame stamp_bytes len;
    Bytes.unsafe_to_string frame
  in
  let dec frame =
    if String.length frame < stamp_bytes then
      Error "probe: frame shorter than its send stamp"
    else begin
      let a = acc t in
      let arrived = Clock.now t.clock in
      Samples.add a.transit
        (arrived -. Int64.float_of_bits (String.get_int64_le frame 0));
      let body =
        String.sub frame stamp_bytes (String.length frame - stamp_bytes)
      in
      let start = Clock.now t.clock in
      let result = c.Iface.dec body in
      a.dec_s <- a.dec_s +. (Clock.now t.clock -. start);
      result
    end
  in
  { Iface.enc; dec }

let backend t (inner : Iface.backend) : Iface.backend =
  let (module B : Iface.BACKEND) = inner in
  (module struct
    let name = B.name ^ "+probe"

    let run ?metrics ?observe ?stop codec ~procs ~handlers ~init ~inputs
        ~failures ~until ~seed =
      t.origin <- Clock.now t.clock;
      let result =
        B.run ?metrics ?observe ?stop (stamp_codec t codec) ~procs
          ~handlers:(wrap_handlers t handlers) ~init ~inputs ~failures ~until
          ~seed
      in
      t.wall <- Clock.now t.clock -. t.origin;
      result
  end)

(* ---------------------------------------------------------------- *)
(* Reading a finished run *)

type summary = {
  busy : float array;  (** summed over nodes, by [kind_index] *)
  calls : int array;
  node_busy_max : float;
      (** the busiest node's share of the run spent in handlers and codec *)
  idle_frac : float;
      (** share of all nodes' wall time outside handlers and codec: waiting
          on mailboxes, locks and timers *)
  handler : float array;  (** sorted handler-call durations *)
  transit : float array;
  late : float array;
  enc_s : float;
  dec_s : float;
  bytes : int;
  largest : string list;  (** each node's largest frame *)
  spans : span list;  (** time-ordered, relative to the run's start *)
}

let summary t =
  let accs =
    List.sort (fun (a : acc) (b : acc) -> Int.compare a.node b.node) (Atomic.get t.accs)
  in
  let merge get =
    let s = Samples.create () in
    List.iter (fun a -> Samples.append s (get a)) accs;
    Samples.sorted s
  in
  let node_busy (a : acc) = Array.fold_left ( +. ) (a.enc_s +. a.dec_s) a.busy in
  let total_busy = List.fold_left (fun s (a : acc) -> s +. node_busy a) 0.0 accs in
  let nodes = float_of_int (max 1 (List.length accs)) in
  {
    busy =
      Array.init 5 (fun i -> List.fold_left (fun s (a : acc) -> s +. a.busy.(i)) 0.0 accs);
    calls = Array.init 5 (fun i -> List.fold_left (fun s (a : acc) -> s + a.calls.(i)) 0 accs);
    node_busy_max =
      List.fold_left (fun m (a : acc) -> Float.max m (Stats.ratio (node_busy a) t.wall)) 0.0 accs;
    idle_frac = 1.0 -. Stats.ratio total_busy (nodes *. t.wall);
    handler = merge (fun (a : acc) -> a.handler);
    transit = merge (fun (a : acc) -> a.transit);
    late = merge (fun (a : acc) -> a.late);
    enc_s = List.fold_left (fun s (a : acc) -> s +. a.enc_s) 0.0 accs;
    dec_s = List.fold_left (fun s (a : acc) -> s +. a.dec_s) 0.0 accs;
    bytes = List.fold_left (fun s (a : acc) -> s + a.bytes) 0 accs;
    largest = List.map (fun (a : acc) -> a.largest) accs;
    spans =
      List.concat_map
        (fun (a : acc) ->
          List.rev_map
            (fun s -> { s with start = s.start -. t.origin; stop = s.stop -. t.origin })
            a.spans)
        accs
      |> List.stable_sort (fun a b -> Float.compare a.start b.start);
  }

let busy s kind = s.busy.(kind_index kind)
let calls s kind = s.calls.(kind_index kind)
