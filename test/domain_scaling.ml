(* How each service's node burst work scales across domains. Each node of
   gcsbench's burst workloads (n = 3, values preloaded at every origin)
   does a fixed amount of handler work per round. This program runs
   exactly that work outside the bus: with the three nodes one after
   another in one domain, then with two and with three nodes each in a
   domain of its own, all at once. No transport, mailbox or lock is
   involved, so the gap between the rows is what running the domains
   side by side costs.

   - VStoTO ([burst], the [gcs load] bus profile, batch window 0.02 s):
     a node takes its 2,500 client values and flushes them as one batch.
   - Skeen ([skeen_burst], 1,000 full-group values per origin) and the
     fixed sequencer ([sequencer_burst], 5,000 per origin): the group
     runs once in memory, every input first and then each packet in the
     order it was sent, and a node's round replays the inputs and
     packets it handled there through its own handlers. Neither service
     arms a timer.

     dune exec test/domain_scaling.exe -- [ROUNDS]
     OCAMLRUNPARAM=s=4M dune exec test/domain_scaling.exe

   Each row prints, over the rounds, the median and range of one node's
   time in each phase in milliseconds, the minor collections of a round
   (every one stops all running domains) and how many minor heaps the
   round's allocation fills: a collection beyond those is one that
   something other than a full heap forced. The last line of a service
   is its three-domain medians over its one-domain medians. *)

open Gcs_core
open Gcs_impl

let procs = Proc.all ~n:3
let clock = Gcs_transport.Clock.create ()
let ms_since t0 = 1000.0 *. (Gcs_transport.Clock.now clock -. t0)

let value me k = Printf.sprintf "%d.%d:%s" me k (String.make 64 'x')

(* ---- VStoTO: one node's input and flush ---- *)

let vstoto_per_origin = 2_500

let vstoto_config =
  To_service.make_config ~batch_window:0.02
    { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 }

let vstoto_handlers = To_service.handlers vstoto_config

(* One node's round: start, take every value, then fire the flush timer
   its first staged value armed. *)
let vstoto_round me =
  let h = vstoto_handlers in
  let node, _ = h.on_start me (To_service.initial vstoto_config me) in
  let flush_id = ref None in
  let t0 = Gcs_transport.Clock.now clock in
  let node = ref node in
  for k = 0 to vstoto_per_origin - 1 do
    let node', effects = h.on_input me ~now:0.0 (value me k) !node in
    node := node';
    List.iter
      (function
        | Gcs_sim.Engine.Set_timer { id; _ } -> flush_id := Some id | _ -> ())
      effects
  done;
  let input_ms = ms_since t0 in
  let t1 = Gcs_transport.Clock.now clock in
  ignore (h.on_timer me ~now:0.02 ~id:(Option.get !flush_id) !node);
  [ ("input", input_ms); ("flush", ms_since t1) ]

(* ---- Skeen and the sequencer: replay of one node's events ---- *)

type ('i, 'p) event = Input of 'i | Packet of Proc.t * 'p

let step (h : ('s, 'i, 'p, 'o) Gcs_sim.Engine.handlers) me state = function
  | Input i -> h.on_input me ~now:0.0 i state
  | Packet (src, p) -> h.on_packet me ~now:0.0 ~src p state

(* Run the group in memory and return the events each node handled, in
   order. Fails unless every node delivered [expected] values. *)
let record h initial ~delivered ~expected ~input ~per_origin =
  let states = Array.of_list (List.map initial procs) in
  let handled = Array.map (fun _ -> []) states in
  let queue = Queue.create () in
  let send me =
    List.iter (function
      | Gcs_sim.Engine.Send { dst; packet } ->
          Queue.add (dst, Packet (me, packet)) queue
      | _ -> ())
  in
  List.iter
    (fun me ->
      let state, effects = h.Gcs_sim.Engine.on_start me states.(me) in
      states.(me) <- state;
      send me effects)
    procs;
  for k = 0 to per_origin - 1 do
    List.iter (fun me -> Queue.add (me, Input (input (value me k))) queue) procs
  done;
  while not (Queue.is_empty queue) do
    let me, ev = Queue.pop queue in
    handled.(me) <- ev :: handled.(me);
    let state, effects = step h me states.(me) ev in
    states.(me) <- state;
    send me effects
  done;
  Array.iteri
    (fun me state ->
      if delivered state <> expected then
        failwith (Printf.sprintf "node %d delivered %d of %d" me
                    (delivered state) expected))
    states;
  Array.map List.rev handled

let replay_round h initial events me =
  let t0 = Gcs_transport.Clock.now clock in
  let state = ref (fst (h.Gcs_sim.Engine.on_start me (initial me))) in
  List.iter (fun ev -> state := fst (step h me !state ev)) events.(me);
  [ ("handlers", ms_since t0) ]

let skeen_round =
  let h = Gcs_skeen.Skeen.handlers (Gcs_skeen.Skeen.make_config ~procs) in
  let per_origin = 1_000 in
  let events =
    record h Gcs_skeen.Skeen.initial ~delivered:Gcs_skeen.Skeen.node_delivered
      ~expected:(3 * per_origin) ~input:Gcs_skeen.Skeen.full_group ~per_origin
  in
  replay_round h Gcs_skeen.Skeen.initial events

let sequencer_round =
  let open Gcs_baseline in
  let h = Sequencer.handlers (Sequencer.make_config ~procs) in
  let per_origin = 5_000 in
  let events =
    record h Sequencer.initial ~delivered:Sequencer.node_delivered
      ~expected:(3 * per_origin) ~input:Fun.id ~per_origin
  in
  replay_round h Sequencer.initial events

(* ---- Rows ---- *)

let one_domain round () = List.map round procs

(* The first [k] nodes, each in a domain of its own, all at once. *)
let domains k round () =
  List.map Domain.join
    (List.init k (fun me -> Domain.spawn (fun () -> round me)))

let median a = Gcs_stdx.Metrics.nearest_rank a 0.5

(* Prints one row and returns each phase's median. *)
let report rounds run =
  let before = Gc.quick_stat () in
  let samples = List.concat (List.init rounds (fun _ -> run ())) in
  let after = Gc.quick_stat () in
  let collections =
    (after.minor_collections - before.minor_collections) / rounds
  in
  let heaps =
    Float.ceil
      ((after.minor_words -. before.minor_words)
      /. float_of_int (rounds * (Gc.get ()).minor_heap_size))
  in
  let phases = match samples with [] -> [] | s :: _ -> List.map fst s in
  let medians =
    List.mapi
      (fun i name ->
        let a = Array.of_list (List.map (fun s -> snd (List.nth s i)) samples) in
        Array.sort Float.compare a;
        Printf.printf " %s %6.1f (%.1f-%.1f) ms " name (median a) a.(0)
          a.(Array.length a - 1);
        median a)
      phases
  in
  Printf.printf "  %d minor GCs/round, allocation fills %.0f heaps\n%!"
    collections heaps;
  medians

let service name rounds round =
  Printf.printf "%s\n" name;
  ignore (one_domain round ());
  let row label run =
    Printf.printf "  %-14s" label;
    report rounds run
  in
  let one = row "one domain" (one_domain round) in
  ignore (row "two domains" (domains 2 round));
  let three = row "three domains" (domains 3 round) in
  Printf.printf "  1 -> 3 domains:%s\n%!"
    (String.concat ""
       (List.map2 (fun a b -> Printf.sprintf " x%.1f" (b /. a)) one three))

let () =
  let rounds =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20
  in
  service "vstoto (burst, 2,500 per origin)" rounds vstoto_round;
  service "skeen (skeen_burst, 1,000 per origin)" rounds skeen_round;
  service "sequencer (sequencer_burst, 5,000 per origin)" rounds
    sequencer_round
