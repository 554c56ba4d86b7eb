(* Replicated key-value store with sequentially consistent reads
   (footnote 3 of the paper): writes travel through the totally ordered
   broadcast, reads are served from the local replica. This example also
   contrasts the partitionable service with the fixed-sequencer baseline.

   Run with: dune exec examples/replicated_kv.exe *)

open Gcs_core
open Gcs_impl
open Gcs_baseline

let procs = Proc.all ~n:4
let vs_config = { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }
let config = To_service.make_config vs_config

let () =
  Format.printf "== Replicated KV: sequentially consistent memory ==@.@.";
  let workload =
    [
      Gcs_apps.Seq_memory.write_submission 0 ~loc:"x" ~value:"1" 10.0;
      Gcs_apps.Seq_memory.write_submission 1 ~loc:"y" ~value:"2" 20.0;
      Gcs_apps.Seq_memory.write_submission 2 ~loc:"x" ~value:"3" 30.0;
      Gcs_apps.Seq_memory.write_submission 3 ~loc:"y" ~value:"4" 40.0;
      Gcs_apps.Seq_memory.write_submission 0 ~loc:"x" ~value:"5" 50.0;
    ]
  in
  let run = To_service.run config ~workload ~failures:[] ~until:300.0 ~seed:1 in
  let trace = To_service.client_trace run in

  (* Local reads at various points in time: each returns the replica's
     current value; replicas may lag (prefixes), never diverge. *)
  let read_points =
    List.concat_map
      (fun p -> [ (p, 35.0, "x"); (p, 65.0, "x"); (p, 290.0, "x"); (p, 290.0, "y") ])
      procs
  in
  (match Gcs_apps.Seq_memory.perform_reads trace read_points with
  | Error e -> Format.printf "error: %s@." e
  | Ok reads ->
      Format.printf "--- local reads (processor, time, loc -> value) ---@.";
      List.iter
        (fun (r : Gcs_apps.Seq_memory.read_event) ->
          Format.printf "  p%d t=%5.1f %s -> %s@." r.proc r.time r.loc
            (Option.value ~default:"(none)" r.result))
        reads;
      Format.printf "@.read discipline respected: %s@.@."
        (if Gcs_apps.Seq_memory.reads_are_consistent trace reads then "OK"
         else "VIOLATED"));

  (* Availability comparison with the fixed sequencer under a partition
     that isolates the sequencer. *)
  Format.printf "--- availability under partition (sequencer isolated) ---@.";
  let seq_config = Sequencer.make_config ~procs in
  let failures =
    List.map
      (fun e -> (30.0, e))
      (Fstatus.partition_events ~parts:[ [ 0 ]; [ 1; 2; 3 ] ])
  in
  let wl =
    List.init 5 (fun i ->
        Gcs_apps.Seq_memory.write_submission
          (1 + (i mod 3))
          ~loc:"z" ~value:(string_of_int i)
          (60.0 +. (float_of_int i *. 10.0)))
  in
  let seq_run =
    Sequencer.run_on
      ~backend:
        (Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta:1.0))
      seq_config ~workload:wl ~failures ~until:400.0
      ~seed:2
  in
  let vstoto_run = To_service.run config ~workload:wl ~failures ~until:400.0 ~seed:2 in
  Format.printf "  fixed sequencer: %d deliveries (stalled — sequencer cut off)@."
    (Sequencer.deliveries seq_run);
  Format.printf "  VStoTO:          %d deliveries (majority formed its own primary view)@."
    (To_service.deliveries vstoto_run)
