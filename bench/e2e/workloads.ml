(* The six workloads: their seeded inputs, their runs through the public
   entry points, the correctness checks made after each run, and the
   metrics read from each run's timed trace (and, when traced, from the
   timing layer in [Probe]). *)

open Gcs_core
open Gcs_impl
module Bus = Gcs_transport.Bus
module Clock = Gcs_transport.Clock
module Prng = Gcs_stdx.Prng
module J = Gcs_stdx.Jsonx
module Samples = Stats.Samples
module Skeen = Gcs_skeen.Skeen
module Sequencer = Gcs_baseline.Sequencer
module Harness = Gcs_nemesis.Harness
module Scenario = Gcs_nemesis.Scenario

type opts = {
  seed : int;
  seconds : float;  (** how long one run measures *)
  scale : float;
      (** below 1, a smoke run: bursts shrink by this factor and the
          tail-percentile guard is off *)
  trace : bool;
  keep_spans : bool;
}

(* What one measured unit produced: a whole open-loop run, one burst, or
   the verify loop. Bursts repeat, and each metric is the median over the
   units of a run. *)
type round = {
  values : (string * float) list;
  counts : (string * (int * int)) list;
      (** percentile metric -> (percentile, samples behind it) *)
  attempted : int;
  failed : int;
  errors : string list;
  spans : J.t list;
}

type outcome = {
  metrics : (string * float) list;
  counts : (string * (int * int)) list;  (** fewest samples over rounds *)
  rounds : int;
  attempted : int;
  failed : int;
  errors : string list;
  spans : J.t list;
}

let ms x = 1000.0 *. x
let us x = 1_000_000.0 *. x
let q = Stats.quantile

(* [<prefix>_p50_<unit>] and [_p99_] of a sorted sample, with counts. *)
let tail prefix unit_name factor sorted =
  let name pct = Printf.sprintf "%s_p%d_%s" prefix pct unit_name in
  ( [
      (name 50, factor *. q ~pct:50 sorted);
      (name 99, factor *. q ~pct:99 sorted);
    ],
    [ (name 50, (50, Array.length sorted)); (name 99, (99, Array.length sorted)) ] )

(* ---------------------------------------------------------------- *)
(* Inputs: every value is its id, ':' and 16-256 bytes of seeded filler *)

type inputs = { due : float array; workload : (float * Proc.t * Value.t) list }

let inputs_of prng slots =
  let pool = String.init 4352 (fun _ -> Char.chr (97 + Prng.int prng 26)) in
  let value id =
    let len = Prng.int_in prng 16 256 in
    let off = Prng.int prng (String.length pool - len) in
    string_of_int id ^ ":" ^ String.sub pool off len
  in
  {
    due = Array.of_list (List.map fst slots);
    workload = List.mapi (fun id (t, p) -> (t, p, value id)) slots;
  }

(* Open loop: origin [p] submits at [start + phase_p + k/rate] for
   [duration] seconds; the phases are seeded. Ids follow due order. *)
let open_loop prng ~procs ~rate ~start ~duration =
  let slots =
    List.concat_map
      (fun p ->
        let phase = Prng.float prng /. rate in
        let count = int_of_float (Float.ceil ((duration -. phase) *. rate)) in
        List.init (max 0 count) (fun k ->
            (start +. phase +. (float_of_int k /. rate), p)))
      procs
  in
  inputs_of prng (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) slots)

(* A burst: every value due at 0, preloaded before the nodes start. *)
let burst prng ~procs ~per_origin =
  inputs_of prng
    (List.concat_map (fun p -> List.init per_origin (fun _ -> (0.0, p))) procs)

let last_due inputs = Array.fold_left Float.max 0.0 inputs.due

(* ---------------------------------------------------------------- *)
(* Shared by the bus workloads *)

let procs = Proc.all ~n:3

(* A run that has not drained this long after its last scheduled event
   ends there; whatever is undelivered counts as failed. *)
let drain_limit = 30.0

let bus_backend probe =
  match probe with
  | None -> Bus.backend ()
  | Some p -> Probe.backend p (Bus.backend ())

(* Spans are kept for the first round only: one round shows the shape, and
   every round's spans would not fit in memory. *)
let new_probe opts ~index =
  if opts.trace then Some (Probe.create ~keep_spans:(opts.keep_spans && index = 0) ())
  else None

(* Client-level metrics and checks of one bus run. *)
let client_round ~inputs ~members c =
  let latency = Samples.sorted (Lifecycle.latencies ~due:inputs.due c) in
  let lag = Samples.sorted (Lifecycle.submit_lags ~due:inputs.due c) in
  let values, counts = tail "latency" "ms" 1000.0 latency in
  {
    values =
      values
      @ [
          ("ops_per_s", Lifecycle.rate ~due:inputs.due c);
          ("bus.submit_lag_p99_ms", ms (q ~pct:99 lag));
        ];
    counts;
    attempted = Array.length inputs.due;
    failed = Lifecycle.undelivered ~members c;
    errors =
      (if c.Lifecycle.strays > 0 then
         [ Printf.sprintf "%d deliveries of values never submitted" c.Lifecycle.strays ]
       else []);
    spans = [];
  }

let handler_span (s : Probe.span) =
  J.Obj
    [
      ("span", J.Str "handler");
      ("node", J.Num (float_of_int s.Probe.node));
      ("name", J.Str (Probe.kind_name s.Probe.kind));
      ("start", J.Num s.Probe.start);
      ("end", J.Num s.Probe.stop);
    ]

(* Per-layer numbers every bus run has once traced. *)
let probe_round (s : Probe.summary) ~packets ~brcvs =
  let per_brcv x = Stats.ratio x (float_of_int brcvs) in
  let bytes = float_of_int s.Probe.bytes in
  [
    ("wire.enc_s", s.Probe.enc_s);
    ("wire.dec_s", s.Probe.dec_s);
    ("wire.bytes", bytes);
    ("wire.bytes_per_brcv", per_brcv bytes);
    ("wire.enc_mb_per_s", Stats.ratio (bytes /. 1e6) s.Probe.enc_s);
    ("bus.transit_p50_us", us (q ~pct:50 s.Probe.transit));
    ("bus.transit_p99_us", us (q ~pct:99 s.Probe.transit));
    ("bus.timer_late_p50_ms", ms (q ~pct:50 s.Probe.late));
    ("bus.timer_late_p99_ms", ms (q ~pct:99 s.Probe.late));
    ("bus.packets_per_brcv", per_brcv (float_of_int packets));
    ("bus.node_busy_max", s.Probe.node_busy_max);
    ("bus.idle_frac", s.Probe.idle_frac);
  ]

(* Adds a traced round's per-layer numbers: the probe's own, and those
   [extra] reads for the protocol (with any spans of its own). *)
let with_probe probe r ~packets ~brcvs extra =
  match probe with
  | None -> r
  | Some p ->
      let s = Probe.summary p in
      let values, spans = extra s in
      {
        r with
        values = r.values @ probe_round s ~packets ~brcvs @ values;
        spans = r.spans @ spans @ List.map handler_span s.Probe.spans;
      }

let error_of pp = function
  | Ok () -> []
  | Error e -> [ Format.asprintf "%a" pp e ]

(* ---------------------------------------------------------------- *)
(* VStoTO *)

(* The `gcs load` bus profile: a token every 150 ms, failure timers that
   never fire on a fault-free run, and a 20 ms batch window. *)
let load_config =
  To_service.make_config ~batch_window:0.02
    { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 }

(* The fault profile: a lost token is noticed within 0.45 s and a healed
   member is probed for every 0.1 s, so discovery adds little jitter to
   the catch-up. *)
let fault_config =
  To_service.make_config ~batch_window:0.02
    { Vs_node.procs; p0 = procs; pi = 0.2; mu = 0.1; delta = 0.05 }

(* Lifecycle spans are written for at most this many values a workload. *)
let span_values = 5000

let stage_spans ~seed ~values staged =
  let chosen = Array.make values (values <= span_values) in
  (if values > span_values then
     let prng = Prng.create seed in
     let picked = ref 0 in
     while !picked < span_values do
       let id = Prng.int prng values in
       if not chosen.(id) then begin
         chosen.(id) <- true;
         incr picked
       end
     done);
  List.concat_map
    (fun (st : Lifecycle.staged) ->
      if not chosen.(st.Lifecycle.value) then []
      else
        let marks = st.Lifecycle.marks in
        let rec go i prev parent acc =
          if i > 5 then List.rev acc
          else if Float.is_nan marks.(i) then go (i + 1) prev parent acc
          else
            let name = Lifecycle.stage_names.(i - 1) in
            let span =
              J.Obj
                [
                  ("span", J.Str "stage");
                  ("value", J.Num (float_of_int st.Lifecycle.value));
                  ("member", J.Num (float_of_int st.Lifecycle.member));
                  ("name", J.Str name);
                  ("parent", match parent with None -> J.Null | Some p -> J.Str p);
                  ("start", J.Num prev);
                  ("end", J.Num marks.(i));
                ]
            in
            go (i + 1) marks.(i) (Some name) (span :: acc)
        in
        go 1 marks.(0) None [])
    staged

(* What a summary adds to a token frame on the wire. *)
let summary_bytes sender msg =
  let token entries =
    String.length
      (Wire.msg_packet_codec.Gcs_transport.Iface.enc
         (Wire.Token
            { (Wire.fresh_token (View_id.make ~num:1 ~origin:sender)) with Wire.entries }))
  in
  token [ { Wire.idx = 1; src = sender; msg } ] - token []

let vstoto_layers ~seed ~inputs ~members (run : To_service.run) (s : Probe.summary) =
  let staged = Lifecycle.lifecycle ~due:inputs.due ~members run.To_service.trace in
  let durations =
    List.map (fun (st : Lifecycle.staged) -> (st.Lifecycle.marks, Lifecycle.stages st)) staged
  in
  (* Stage [i] over the deliveries where it is present. *)
  let stage i =
    Samples.sorted
      (Samples.of_list
         (List.filter_map
            (fun (marks, d) -> if Float.is_nan marks.(i + 1) then None else Some d.(i))
            durations))
  in
  let batches, summaries =
    List.fold_left
      (fun (batches, summaries) (_, out) ->
        match out with
        | To_service.Vs_layer (Vs_action.Gpsnd { sender; msg }) -> (
            match msg with
            | Msg.Summary _ -> (batches, (sender, msg) :: summaries)
            | Msg.App _ | Msg.Batch _ ->
                (float_of_int (List.length (Msg.app_entries msg)) :: batches, summaries))
        | _ -> (batches, summaries))
      ([], []) (Timed.actions run.To_service.trace)
  in
  let brcvs = List.length staged in
  let tokens =
    float_of_int (Gcs_stdx.Metrics.counter run.To_service.metrics "vs.tokens_launched")
  in
  let token_entries frame =
    match Wire.msg_packet_codec.Gcs_transport.Iface.dec frame with
    | Ok (Wire.Token tok) -> List.length tok.Wire.entries
    | Ok _ | Error _ -> 0
  in
  let staging = stage 1 and ring = stage 2 and safe = stage 3 and confirm = stage 4 in
  let tails = List.concat_map fst in
  ( tails
      [
        tail "to_service.staging" "ms" 1000.0 staging;
        tail "vs_node.ring" "ms" 1000.0 ring;
        tail "vs_node.safe" "ms" 1000.0 safe;
        tail "vstoto.confirm" "ms" 1000.0 confirm;
      ]
    @ [
        ("to_service.batch_mean", Stats.mean batches);
        ("to_service.batch_max", List.fold_left Float.max 0.0 batches);
        ("to_service.input_busy_s", Probe.busy s Probe.Input);
        ("to_service.flush_busy_s", Probe.busy s Probe.Flush);
        ("to_service.flush_calls", float_of_int (Probe.calls s Probe.Flush));
        ("vs_node.packet_busy_s", Probe.busy s Probe.Packet);
        ("vs_node.timer_busy_s", Probe.busy s Probe.Timer);
        ("vs_node.tokens_launched", tokens);
        ("vs_node.tokens_per_brcv", Stats.ratio tokens (float_of_int brcvs));
        ( "vs_node.token_entries_max",
          float_of_int (List.fold_left (fun m f -> max m (token_entries f)) 0 s.Probe.largest) );
        ( "vs_node.views_installed",
          float_of_int
            (Proc.Map.fold
               (fun _ node acc -> acc + To_service.node_views_installed node)
               run.To_service.final_nodes 0) );
        ("vstoto.summaries", float_of_int (List.length summaries));
        ( "vstoto.summary_bytes",
          float_of_int
            (List.fold_left (fun acc (p, m) -> acc + summary_bytes p m) 0 summaries) );
      ],
    stage_spans ~seed ~values:(Array.length inputs.due) staged )

let vstoto_round opts ~config ~inputs ~failures ~cycles ~index =
  let members = List.length procs in
  let values = Array.length inputs.due in
  let probe = new_probe opts ~index in
  (* [gcs load]'s drain test: every node has reported every value. *)
  let progress = Array.init members (fun _ -> Atomic.make 0) in
  let observe p _pre post =
    Gcs_stdx.Atomicx.store_max progress.(p)
      ((To_service.node_app post).Vstoto.nextreport - 1)
  in
  let last_event =
    List.fold_left (fun m (t, _) -> Float.max m t) (last_due inputs) failures
  in
  let stop ~now ~outputs:_ =
    now > last_event && Array.for_all (fun a -> Atomic.get a >= values) progress
  in
  let run =
    To_service.run_on ~observe ~stop ~backend:(bus_backend probe) config
      ~workload:inputs.workload ~failures ~until:(last_event +. drain_limit)
      ~seed:(opts.seed + index)
  in
  let c = Lifecycle.client ~values (Timed.actions (To_service.client_trace run)) in
  let r = client_round ~inputs ~members c in
  let partition =
    match cycles with
    | [] -> []
    | _ ->
        [
          ( "vs_node.outage_s",
            Stats.median (List.map (fun cy -> Lifecycle.outage ~procs cy c) cycles) );
          ( "vstoto.catchup_s",
            Stats.median (List.map (fun cy -> Lifecycle.catchup ~due:inputs.due cy c) cycles) );
        ]
  in
  let r =
    {
      r with
      values = r.values @ partition;
      errors = r.errors @ error_of To_trace_checker.pp_error (To_service.to_conforms config run);
    }
  in
  with_probe probe r ~packets:run.To_service.packets_sent
    ~brcvs:(List.length c.Lifecycle.deliveries) (fun s ->
      let layers, spans = vstoto_layers ~seed:opts.seed ~inputs ~members run s in
      (layers, if index = 0 then spans else []))

(* ---------------------------------------------------------------- *)
(* Skeen and the sequencer *)

let skeen_round opts ~inputs ~index =
  let config = Skeen.make_config ~procs in
  let workload =
    List.map (fun (t, p, v) -> (t, p, Skeen.full_group v)) inputs.workload
  in
  let expected = Skeen.expected_deliveries config workload in
  let submitted = List.length workload in
  let probe = new_probe opts ~index in
  let run =
    Skeen.run_on
      ~stop:(fun ~now:_ ~outputs -> outputs >= submitted + expected)
      ~backend:(bus_backend probe) config ~workload ~failures:[]
      ~until:(last_due inputs +. drain_limit) ~seed:(opts.seed + index)
  in
  let c = Lifecycle.client ~values:submitted (Timed.actions run.Skeen.trace) in
  let r = client_round ~inputs ~members:(List.length procs) c in
  let complete = Skeen.check_complete config ~workload run.Skeen.trace in
  let r =
    {
      r with
      errors =
        r.errors
        @ error_of Format.pp_print_string
            (Skeen.check_group_order config ~workload run.Skeen.trace)
        @
        if Result.is_ok complete = (r.failed = 0) then []
        else [ "Skeen.check_complete disagrees with the delivery count" ];
    }
  in
  with_probe probe r ~packets:run.Skeen.packets_sent
    ~brcvs:(List.length c.Lifecycle.deliveries) (fun s ->
      ( [
          ("skeen.packet_busy_s", Probe.busy s Probe.Packet);
          ("skeen.handler_p99_us", us (q ~pct:99 s.Probe.handler));
        ],
        [] ))

let sequencer_round opts ~inputs ~index =
  let config = Sequencer.make_config ~procs in
  let submitted = Array.length inputs.due in
  let probe = new_probe opts ~index in
  let run =
    Sequencer.run_on
      ~stop:(fun ~now:_ ~outputs -> outputs >= submitted * (1 + List.length procs))
      ~backend:(bus_backend probe) config ~workload:inputs.workload ~failures:[]
      ~until:(last_due inputs +. drain_limit) ~seed:(opts.seed + index)
  in
  let c = Lifecycle.client ~values:submitted (Timed.actions run.Sequencer.trace) in
  let r = client_round ~inputs ~members:(List.length procs) c in
  let r =
    {
      r with
      errors = r.errors @ error_of To_trace_checker.pp_error (Sequencer.to_conforms config run);
    }
  in
  with_probe probe r ~packets:run.Sequencer.packets_sent
    ~brcvs:(List.length c.Lifecycle.deliveries) (fun s ->
      ([ ("sequencer.packet_busy_s", Probe.busy s Probe.Packet) ], []))

(* ---------------------------------------------------------------- *)
(* Set-up time *)

(* One set-up takes from under a millisecond to a few, where a single
   reading is mostly noise. So set-up is timed in samples: a sample repeats
   the set-up back to back until [setup_sample] seconds have passed and
   divides by the count, and setup_s is the fastest of [setup_samples]
   samples [setup_gap] apart. On a shared host each virtual CPU runs slow
   (by about 1.65x) in stretches of a few tenths of a second, and the slow
   share of the time drifts, over minutes, from a tenth to three quarters.
   Samples taken back to back all land in one stretch, and the median of
   spaced samples still follows the slow share of the moment. Interference
   only ever slows a sample down, so the fastest of them reads the
   set-up's own cost unless every sample was slowed. The inputs the run
   uses come from a first, untimed set-up; the samples are taken before
   the run, so their garbage does not add to the run's peak RSS. *)
let setup_samples = 11
let setup_sample = 0.02
let setup_gap = 0.1

let timed_setup make =
  let inputs = make () in
  let clock = Clock.create () in
  let sample () =
    Clock.sleep setup_gap;
    let start = Clock.now clock in
    let rec go count =
      ignore (make ());
      let elapsed = Clock.now clock -. start in
      if elapsed >= setup_sample then elapsed /. float_of_int count else go (count + 1)
    in
    go 1
  in
  let samples = List.init setup_samples (fun _ -> sample ()) in
  (inputs, List.fold_left Float.min Float.infinity samples)

(* ---------------------------------------------------------------- *)
(* verify: seeded nemesis schedules on the simulator, every oracle *)

(* The `gcs soak` defaults. *)
let soak_config =
  let procs = Proc.all ~n:5 in
  To_service.make_config { Vs_node.procs; p0 = procs; pi = 8.0; mu = 10.0; delta = 1.0 }

(* The schedules of `gcs soak --seed 1 --iters 1000`, every one of which
   passes; [--seed] picks the order a run takes them in, pass after pass.
   The pool is fixed because freshly drawn schedules occasionally fail an
   oracle (at the time of writing, `gcs nemesis --seed 2094926 --events 11`
   breaks TO conformance), and a failure would make [failed] depend on the
   seed. It is small enough that a run takes each schedule two to four
   times, and a schedule's latency is the mean of its runs: a schedule
   takes a few milliseconds, and on a shared host momentary stalls of that
   size would otherwise set the p99. Not the best of the runs: when the
   host runs slow for most of a run, whether all of a schedule's two or
   three runs land in slow stretches is a coin toss, and a p50 of bests
   follows it further than a p50 of means does. *)
let schedules = 1000

let verify_setup opts =
  let procs = soak_config.To_service.vs.Vs_node.procs in
  Array.of_list
    (Prng.shuffle (Prng.create opts.seed)
       (List.init schedules (fun i ->
            let seed = 1 + (i * 97) in
            (seed, Gcs_nemesis.Gen.scenario ~procs ~events:(8 + (i mod 5)) ~seed ()))))

(* The calls [Harness.run] makes, timed one by one. Returns the verdict,
   the call timings (compile, run, to, vs, bound) and the events run. *)
let verify_traced ~seed scenario =
  let config = soak_config in
  let procs = config.To_service.vs.Vs_node.procs in
  let clock = Clock.create () in
  let lap () = Clock.now clock in
  let workload = Harness.default_workload ~procs () in
  let until = Harness.default_until ~config scenario in
  let t0 = lap () in
  let failures = Scenario.compile ~procs scenario in
  let t1 = lap () in
  let run = To_service.run config ~workload ~failures ~until ~seed in
  let t2 = lap () in
  let to_ok = Result.is_ok (To_service.to_conforms config run) in
  let t3 = lap () in
  let vs_ok = Result.is_ok (To_service.vs_conforms config run) in
  let t4 = lap () in
  let bound_ok =
    if Scenario.all_good ~procs (Scenario.final_world ~procs scenario) then
      let b, d = Harness.bounds config in
      To_property.holds
        (To_property.check ~b ~d ~q:procs ~horizon:until (To_service.client_trace run))
    else true
  in
  let t5 = lap () in
  ( to_ok && vs_ok && bound_ok,
    [| t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3; t5 -. t4 |],
    run.To_service.events_processed )

let call_names = [| "compile"; "run"; "to_check"; "vs_check"; "bound_check" |]

let verify_round opts scenarios ~budget =
  let clock = Clock.create () in
  let pool = Array.length scenarios in
  let total = Array.make pool 0.0 and taken = Array.make pool 0 in
  let elapsed = ref 0.0 in
  let calls = Array.make 5 0.0 and events = ref 0 and failed = ref 0 in
  let spans = ref [] in
  let rec loop i =
    if i > 0 && Clock.now clock >= budget then i
    else begin
      let seed, scenario = scenarios.(i mod pool) in
      let start = Clock.now clock in
      let passed =
        if not opts.trace then Harness.passed (Harness.run ~config:soak_config ~seed scenario)
        else begin
          let ok, laps, ev = verify_traced ~seed scenario in
          Array.iteri (fun k l -> calls.(k) <- calls.(k) +. l) laps;
          events := !events + ev;
          if opts.keep_spans && i < span_values then begin
            let at = ref start in
            Array.iteri
              (fun k l ->
                spans :=
                  J.Obj
                    [
                      ("span", J.Str "call");
                      ("schedule", J.Num (float_of_int i));
                      ("name", J.Str call_names.(k));
                      ("start", J.Num !at);
                      ("end", J.Num (!at +. l));
                    ]
                  :: !spans;
                at := !at +. l)
              laps
          end;
          ok
        end
      in
      let took = Clock.now clock -. start in
      total.(i mod pool) <- total.(i mod pool) +. took;
      taken.(i mod pool) <- taken.(i mod pool) + 1;
      elapsed := !elapsed +. took;
      if not passed then incr failed;
      loop (i + 1)
    end
  in
  let runs = loop 0 in
  let latency =
    Samples.sorted
      (Samples.of_list
         (List.filter_map
            (fun k -> if taken.(k) = 0 then None else Some (total.(k) /. float_of_int taken.(k)))
            (List.init pool Fun.id)))
  in
  let values, counts = tail "latency" "ms" 1000.0 latency in
  let each k = ms (calls.(k) /. float_of_int runs) in
  let checks = calls.(2) +. calls.(3) +. calls.(4) in
  {
    values =
      values
      @ [ ("ops_per_s", Stats.ratio (float_of_int runs) !elapsed) ]
      @
      if not opts.trace then []
      else
        [
          ("nemesis.compile_ms", each 0);
          ("engine.run_ms", each 1);
          ("engine.events_per_s", Stats.ratio (float_of_int !events) calls.(1));
          ("checker.to_ms", each 2);
          ("checker.vs_ms", each 3);
          ("checker.bound_ms", each 4);
          ("checker.share", Stats.ratio checks (Array.fold_left ( +. ) 0.0 calls));
        ];
    counts;
    attempted = runs;
    failed = !failed;
    errors = [];
    spans = List.rev !spans;
  }

(* ---------------------------------------------------------------- *)
(* Running a workload *)

(* Repeat [round] until the budget is spent (at least once). The heap is
   compacted before each round so one round's garbage is not the next
   round's cost. *)
let repeat ~budget round =
  let clock = Clock.create () in
  let rec go index acc =
    Gc.compact ();
    let acc = round ~index :: acc in
    if Clock.now clock >= budget then List.rev acc else go (index + 1) acc
  in
  go 0 []

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; rest ] -> (
              match String.split_on_char ' ' (String.trim rest) with
              | kb :: _ -> (
                  match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' status)

let finish opts ~setup_s rounds =
  let names =
    List.sort_uniq String.compare
      (List.concat_map (fun (r : round) -> List.map fst r.values) rounds)
  in
  let median name =
    Stats.median
      (List.filter_map (fun (r : round) -> List.assoc_opt name r.values) rounds)
  in
  let counts =
    List.filter_map
      (fun name ->
        match List.filter_map (fun (r : round) -> List.assoc_opt name r.counts) rounds with
        | [] -> None
        | ((pct, _) :: _) as all ->
            Some (name, (pct, List.fold_left (fun m (_, n) -> min m n) max_int all)))
      names
  in
  (* A reported end-to-end percentile needs ten samples beyond it in every
     round; a smoke run is too small for that by design. *)
  let guard =
    if opts.scale < 1.0 then []
    else
      List.filter_map
        (fun (name, (pct, n)) ->
          if List.mem_assoc name Catalog.end_to_end && not (Stats.supported ~pct n)
          then
            Some
              (Printf.sprintf "%s: %d samples leave fewer than %d beyond p%d" name n
                 Stats.min_beyond pct)
          else None)
        counts
  in
  {
    metrics =
      List.map (fun n -> (n, median n)) names
      @ [ ("setup_s", setup_s); ("peak_rss_mb", peak_rss_mb ()) ];
    counts;
    rounds = List.length rounds;
    attempted = List.fold_left (fun acc (r : round) -> acc + r.attempted) 0 rounds;
    failed = List.fold_left (fun acc (r : round) -> acc + r.failed) 0 rounds;
    errors = guard @ List.concat_map (fun (r : round) -> r.errors) rounds;
    spans = List.concat_map (fun (r : round) -> r.spans) rounds;
  }

(* ---------------------------------------------------------------- *)
(* The workloads *)

type workload = { name : string; run : opts -> outcome }

let scaled opts n = max 1 (int_of_float (float_of_int n *. opts.scale))

(* Open-loop load starts this long after the nodes do, past the leader's
   first token launch. *)
let load_start = 0.2

let bus_workload ~setup ~round opts =
  let inputs, setup_s = timed_setup (fun () -> setup opts) in
  finish opts ~setup_s (repeat ~budget:opts.seconds (round opts inputs))

let steady =
  bus_workload
    ~setup:(fun opts ->
      open_loop (Prng.create opts.seed) ~procs ~rate:200.0 ~start:load_start
        ~duration:opts.seconds)
    ~round:(fun opts inputs ->
      vstoto_round opts ~config:load_config ~inputs ~failures:[] ~cycles:[])

let preloaded per_origin opts =
  burst (Prng.create opts.seed) ~procs ~per_origin:(scaled opts per_origin)

let burst_vstoto =
  bus_workload ~setup:(preloaded 2_500) ~round:(fun opts inputs ->
      vstoto_round opts ~config:load_config ~inputs ~failures:[] ~cycles:[])

(* Three cycles, each cutting a different member off for [cut_share] of
   the cycle; the first isolates the ring leader, 0. *)
let cut_share = 1.0 /. 3.0

(* The load is light because every view change ships each member's whole
   history in its state-exchange summary: at 100 values/s per origin the
   third cycle's summaries outgrow the heal period. *)
let partition_rate = 25.0

let partition_setup opts =
  let prng = Prng.create opts.seed in
  let duration = opts.seconds in
  let inputs = open_loop prng ~procs ~rate:partition_rate ~start:load_start ~duration in
  let cycle = 0.3 *. duration and first = load_start +. (0.1 *. duration) in
  let cycles =
    List.mapi
      (fun i isolated ->
        let cut = first +. (float_of_int i *. cycle) in
        {
          Lifecycle.isolated;
          cut;
          heal = cut +. (cut_share *. cycle);
          until = (if i = 2 then load_start +. duration else cut +. cycle);
        })
      (0 :: Prng.shuffle prng [ 1; 2 ])
  in
  let failures =
    List.concat_map
      (fun (cy : Lifecycle.cycle) ->
        let rest = List.filter (fun p -> not (Proc.equal p cy.isolated)) procs in
        List.map (fun e -> (cy.cut, e))
          (Fstatus.partition_events ~parts:[ [ cy.isolated ]; rest ])
        @ List.map (fun e -> (cy.heal, e)) (Fstatus.heal_events ~procs))
      cycles
  in
  (inputs, failures, cycles)

let partition =
  bus_workload ~setup:partition_setup ~round:(fun opts (inputs, failures, cycles) ->
      vstoto_round opts ~config:fault_config ~inputs ~failures ~cycles)

let verify opts =
  let scenarios, setup_s = timed_setup (fun () -> verify_setup opts) in
  Gc.compact ();
  finish opts ~setup_s [ verify_round opts scenarios ~budget:opts.seconds ]

(* Why each workload is here is recorded in BENCHMARK.json and README.md. *)
let all =
  [
    { name = "steady"; run = steady };
    { name = "burst"; run = burst_vstoto };
    { name = "partition"; run = partition };
    { name = "verify"; run = verify };
    {
      name = "skeen_burst";
      run =
        bus_workload ~setup:(preloaded 1_000) ~round:(fun opts inputs ->
            skeen_round opts ~inputs);
    };
    {
      name = "sequencer_burst";
      run =
        bus_workload ~setup:(preloaded 5_000) ~round:(fun opts inputs ->
            sequencer_round opts ~inputs);
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
