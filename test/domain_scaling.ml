(* How the VStoTO node's burst work scales across domains. Each node of
   gcsbench's [burst] workload (n = 3, the [gcs load] bus profile, batch
   window 0.02 s) takes 2,500 client values and flushes them as one batch
   per round. This program runs exactly that handler work outside the
   bus: with the three nodes one after another in one domain, then
   with two and with three nodes each in a domain of its own, all at
   once. No transport, mailbox or lock is involved, so the gap between
   the rows is what running the domains side by side costs.

     dune exec test/domain_scaling.exe -- [ROUNDS]
     OCAMLRUNPARAM=s=4M dune exec test/domain_scaling.exe

   Each row prints, over the rounds, the median and range of one node's
   input time and flush time in milliseconds, and the minor collections
   of a round (every one stops all running domains). *)

open Gcs_core
open Gcs_impl

let procs = Proc.all ~n:3
let per_origin = 2_500

let config =
  To_service.make_config ~batch_window:0.02
    { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 }

let handlers = To_service.handlers config
let clock = Gcs_transport.Clock.create ()
let ms_since t0 = 1000.0 *. (Gcs_transport.Clock.now clock -. t0)

(* One node's round: start, take every value, then fire the flush timer
   its first staged value armed. Returns (input ms, flush ms). *)
let node_round me =
  let node, _ = handlers.on_start me (To_service.initial config me) in
  let flush_id = ref None in
  let t0 = Gcs_transport.Clock.now clock in
  let node = ref node in
  for k = 0 to per_origin - 1 do
    let value = Printf.sprintf "%d.%d:%s" me k (String.make 64 'x') in
    let node', effects = handlers.on_input me ~now:0.0 value !node in
    node := node';
    List.iter
      (function
        | Gcs_sim.Engine.Set_timer { id; _ } -> flush_id := Some id | _ -> ())
      effects
  done;
  let input_ms = ms_since t0 in
  let t1 = Gcs_transport.Clock.now clock in
  ignore (handlers.on_timer me ~now:0.02 ~id:(Option.get !flush_id) !node);
  (input_ms, ms_since t1)

let one_domain () = List.map node_round procs

(* The first [k] nodes, each in a domain of its own, all at once. *)
let domains k () =
  List.map Domain.join
    (List.init k (fun me -> Domain.spawn (fun () -> node_round me)))

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

let report label rounds run =
  let before = minor_collections () in
  let samples = List.concat (List.init rounds (fun _ -> run ())) in
  let collections = (minor_collections () - before) / rounds in
  let summary pick =
    let a = Array.of_list (List.map pick samples) in
    Array.sort Float.compare a;
    Printf.sprintf "%6.1f (%.1f-%.1f)"
      (Gcs_stdx.Metrics.nearest_rank a 0.5)
      a.(0)
      a.(Array.length a - 1)
  in
  Printf.printf "%-14s input %s ms   flush %s ms   %d minor GCs/round\n%!"
    label (summary fst) (summary snd) collections

let () =
  let rounds =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20
  in
  ignore (one_domain ());
  report "one domain" rounds one_domain;
  report "two domains" rounds (domains 2);
  report "three domains" rounds (domains 3)
