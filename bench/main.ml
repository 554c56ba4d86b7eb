(* Benchmark and experiment harness.

   The paper has no empirical tables (it is a specification paper); the
   quantitative claims it makes are the Section 8 analytical bounds and
   the conditional properties of Sections 3/4/7. Each X-section below
   regenerates one of those claims as a paper-vs-measured series (see
   DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
   results); the M-section holds bechamel micro-benchmarks of the core
   machinery.

   Every sweep fans its independent (parameter, seed) runs out over a
   Gcs_stdx.Pool of domains — each run owns its own PRNG, so results are
   bit-identical to the sequential run at any job count; rows are printed
   (and recorded) in deterministic input order.

   Run with: dune exec bench/main.exe                 (full run)
             dune exec bench/main.exe -- --quick      (skip micro-benchmarks)
             dune exec bench/main.exe -- --jobs 4     (parallel sweeps)
             dune exec bench/main.exe -- --json FILE  (machine-readable results)
             dune exec bench/main.exe -- --only X19      (a single section)
             dune exec bench/main.exe -- --only X19,X20  (a comma-set of them)
             dune exec bench/main.exe -- --quick --jobs 2 --check-drift BENCH.json
                                                        (the CI drift gate) *)

open Gcs_core
open Gcs_impl

let delta = 1.0
let sim = Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta)
let jobs = ref 1

let pmap f xs = Gcs_stdx.Pool.map ~jobs:!jobs f xs

let mk_vs_config ?(pi = 8.0) ?(mu = 10.0) n =
  let procs = Proc.all ~n in
  { Vs_node.procs; p0 = procs; pi; mu; delta }

let workload ~senders ~from_time ~spacing ~count ~tag =
  List.concat_map
    (fun (i, p) ->
      List.init count (fun k ->
          ( from_time +. (float_of_int k *. spacing) +. (0.19 *. float_of_int i),
            p,
            Printf.sprintf "%s%d.%d" tag p k )))
    (List.mapi (fun i p -> (i, p)) senders)

let partition_at t parts =
  List.map (fun e -> (t, e)) (Fstatus.partition_events ~parts)

let heal_at procs t = List.map (fun e -> (t, e)) (Fstatus.heal_events ~procs)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let maxf = function [] -> nan | x :: xs -> List.fold_left max x xs

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let row fmt = Printf.printf fmt

(* Machine-readable rows for --json. *)
module J = Gcs_stdx.Jsonx

type section = { id : string; title : string; wall_s : float; rows : J.t list }

let recorded : section list ref = ref []
let only : string list option ref = ref None

(* Each experiment prints its table and returns machine-readable rows;
   [section] times the whole X-section (wall clock, so pool speedups are
   visible in the JSON trajectory). [--only ID,ID,...] skips everything
   else. *)
let section id title f =
  match !only with
  | Some want when not (List.exists (String.equal id) want) -> ()
  | _ ->
      header (id ^ ": " ^ title);
      let t0 = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () in
      let rows = f () in
      let wall_s = (Unix.gettimeofday [@gcs.lint.allow "D2"]) () -. t0 in
      recorded := { id; title; wall_s; rows } :: !recorded

(* ------------------------------------------------------------------ *)
(* X6: view stabilization time after a partition vs the Section 8 bound
   b = 9d + max(pi + (n+3)d, mu). *)

let x6 () =
  row "%4s %6s %12s %12s %12s\n" "n" "|Q|" "measured" "paper b" "impl b";
  let ns = [ 3; 4; 5; 6; 7 ] in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let items = List.concat_map (fun n -> List.map (fun s -> (n, s)) seeds) ns in
  let samples =
    pmap
      (fun (n, seed) ->
        let config = mk_vs_config n in
        let procs = config.Vs_node.procs in
        let q = List.filteri (fun i _ -> i < (n / 2) + 1) procs in
        let rest = List.filter (fun p -> not (List.mem p q)) procs in
        let failures = partition_at 100.0 [ q; rest ] in
        let run =
          Vs_service.run config ~workload:[] ~failures ~until:400.0 ~seed
        in
        ( n,
          Option.map
            (fun t -> t -. 100.0)
            (Vs_service.stabilized_view_time ~q run) ))
      items
  in
  List.map
    (fun n ->
      let config = mk_vs_config n in
      let q =
        List.filteri (fun i _ -> i < (n / 2) + 1) config.Vs_node.procs
      in
      let measured =
        List.filter_map (fun (n', m) -> if n' = n then m else None) samples
      in
      let q_config = { config with Vs_node.procs = q } in
      let m = mean measured in
      let pb = Vs_node.paper_b q_config and ib = Vs_node.impl_b config in
      row "%4d %6d %12.2f %12.2f %12.2f\n" n (List.length q) m pb ib;
      J.Obj
        [
          ("n", J.int n);
          ("q_size", J.int (List.length q));
          ("measured_mean", J.Num m);
          ("paper_b", J.Num pb);
          ("impl_b", J.Num ib);
        ])
    ns

(* ------------------------------------------------------------------ *)
(* X7: steady-state safe-delivery latency vs d = 2pi + n*delta. *)

let safe_latencies config run =
  let q = config.Vs_node.procs in
  let nq = List.length q in
  let sends = Hashtbl.create 256 in
  let safes = Hashtbl.create 256 in
  List.iter
    (fun (t, a) ->
      match a with
      | Vs_action.Gpsnd { sender; msg } ->
          if not (Hashtbl.mem sends (sender, msg)) then
            Hashtbl.replace sends (sender, msg) t
      | Vs_action.Safe { src; msg; _ } ->
          let last, count =
            match Hashtbl.find_opt safes (src, msg) with
            | Some (last, count) -> (max last t, count + 1)
            | None -> (t, 1)
          in
          Hashtbl.replace safes (src, msg) (last, count)
      | _ -> ())
    (Timed.actions run.Vs_service.trace);
  (* Sort: the fold visits [sends] in hash order and float summation in
     [mean] is order-sensitive. *)
  List.sort Float.compare
    (Hashtbl.fold
       (fun key t0 acc ->
         match Hashtbl.find_opt safes key with
         | Some (last, count) when count = nq -> (last -. t0) :: acc
         | _ -> acc)
       sends [])

let x7 () =
  row "%4s %6s %10s %10s %10s %10s\n" "n" "pi" "mean" "max" "paper d" "impl d";
  let configs =
    List.map (fun n -> (n, mk_vs_config n)) [ 2; 3; 4; 5; 6 ]
    @ List.map (fun pi -> (5, mk_vs_config ~pi 5)) [ 6.0; 10.0; 14.0; 18.0 ]
  in
  let seeds = [ 1; 2; 3 ] in
  let items =
    List.concat_map
      (fun (i, cfg) -> List.map (fun s -> (i, cfg, s)) seeds)
      (List.mapi (fun i (n, cfg) -> (i, (n, cfg))) configs
      |> List.map (fun (i, (_, cfg)) -> (i, cfg)))
  in
  let lat_samples =
    pmap
      (fun (i, config, seed) ->
        let wl =
          workload ~senders:config.Vs_node.procs ~from_time:5.0 ~spacing:9.0
            ~count:10 ~tag:"m"
        in
        ( i,
          safe_latencies config
            (Vs_service.run config ~workload:wl ~failures:[] ~until:400.0 ~seed)
        ))
      items
  in
  List.mapi
    (fun i (n, config) ->
      let lats =
        List.concat_map
          (fun (i', l) -> if i' = i then l else [])
          lat_samples
      in
      let m = mean lats and mx = maxf lats in
      let pd = Vs_node.paper_d config and id = Vs_node.impl_d config in
      row "%4d %6.1f %10.2f %10.2f %10.2f %10.2f\n" n config.Vs_node.pi m mx pd
        id;
      J.Obj
        [
          ("n", J.int n);
          ("pi", J.Num config.Vs_node.pi);
          ("mean", J.Num m);
          ("max", J.Num mx);
          ("paper_d", J.Num pd);
          ("impl_d", J.Num id);
        ])
    configs

(* ------------------------------------------------------------------ *)
(* X8: end-to-end TO delivery latency (Theorem 7.1: TO(b + d, d, Q)). *)

let to_latencies run =
  let sends = Hashtbl.create 256 in
  let last_delivery = Hashtbl.create 256 in
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (t, a) ->
      match a with
      | To_action.Bcast (p, v) ->
          if not (Hashtbl.mem sends (p, v)) then Hashtbl.replace sends (p, v) t
      | To_action.Brcv { src; value; _ } ->
          let key = (src, value) in
          Hashtbl.replace last_delivery key
            (max t
               (Option.value ~default:neg_infinity
                  (Hashtbl.find_opt last_delivery key)));
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      | To_action.To_order _ -> ())
    (Timed.actions (To_service.client_trace run));
  (sends, last_delivery, counts)

let x8 () =
  row "%4s %10s %10s %14s %14s\n" "n" "mean" "max" "bound b'=b+d" "bound d'";
  let ns = [ 3; 4; 5; 6 ] in
  let seeds = [ 1; 2; 3 ] in
  let items = List.concat_map (fun n -> List.map (fun s -> (n, s)) seeds) ns in
  let samples =
    pmap
      (fun (n, seed) ->
        let vs_config = mk_vs_config n in
        let config = To_service.make_config vs_config in
        let procs = vs_config.Vs_node.procs in
        let wl =
          workload ~senders:procs ~from_time:5.0 ~spacing:11.0 ~count:8
            ~tag:"v"
        in
        let run =
          To_service.run config ~workload:wl ~failures:[] ~until:500.0 ~seed
        in
        let sends, last_delivery, counts = to_latencies run in
        ( n,
          (* Sorted for the same reason as [safe_latencies]: determinism
             of the order-sensitive float mean downstream. *)
          List.sort Float.compare
            (Hashtbl.fold
               (fun key t0 acc ->
                 match
                   ( Hashtbl.find_opt last_delivery key,
                     Hashtbl.find_opt counts key )
                 with
                 | Some t1, Some c when c = n -> (t1 -. t0) :: acc
                 | _ -> acc)
               sends []) ))
      items
  in
  List.map
    (fun n ->
      let vs_config = mk_vs_config n in
      let lats =
        List.concat_map (fun (n', l) -> if n' = n then l else []) samples
      in
      let m = mean lats and mx = maxf lats in
      let b' = Vs_node.impl_b vs_config +. Vs_node.impl_d vs_config in
      let d' = Vs_node.impl_d vs_config +. (4.0 *. delta) in
      row "%4d %10.2f %10.2f %14.2f %14.2f\n" n m mx b' d';
      J.Obj
        [
          ("n", J.int n);
          ("mean", J.Num m);
          ("max", J.Num mx);
          ("bound_b_plus_d", J.Num b');
          ("bound_d", J.Num d');
        ])
    ns

(* ------------------------------------------------------------------ *)
(* X9: recovery (state exchange) after a merge: catch-up time of the
   minority as a function of the backlog accumulated by the majority.
   State transfer rides in the summaries, so catch-up should be a few
   token rounds, nearly independent of the backlog. *)

let x9 () =
  row "%10s %12s %14s\n" "backlog" "catch-up" "(deliveries)";
  let n = 5 in
  let vs_config = mk_vs_config n in
  let config = To_service.make_config vs_config in
  let procs = vs_config.Vs_node.procs in
  let majority = [ 0; 1; 2 ] and minority = [ 3; 4 ] in
  let results =
    pmap
      (fun backlog ->
        let heal_time = 100.0 +. (float_of_int backlog *. 1.0) in
        let wl =
          List.init backlog (fun k ->
              ( 60.0 +. (float_of_int k *. 0.7),
                List.nth majority (k mod 3),
                Printf.sprintf "b%d" k ))
        in
        let failures =
          partition_at 40.0 [ majority; minority ] @ heal_at procs heal_time
        in
        let until = heal_time +. 300.0 in
        let run = To_service.run config ~workload:wl ~failures ~until ~seed:5 in
        let last =
          List.fold_left
            (fun acc (t, a) ->
              match a with
              | To_action.Brcv { dst; _ } when List.mem dst minority -> max acc t
              | _ -> acc)
            neg_infinity
            (Timed.actions (To_service.client_trace run))
        in
        let minority_deliveries =
          List.length
            (List.filter
               (fun (_, a) ->
                 match a with
                 | To_action.Brcv { dst; _ } -> List.mem dst minority
                 | _ -> false)
               (Timed.actions (To_service.client_trace run)))
        in
        ( backlog,
          (if last = neg_infinity then nan else last -. heal_time),
          minority_deliveries ))
      [ 10; 50; 100; 200 ]
  in
  List.map
    (fun (backlog, catchup, deliveries) ->
      row "%10d %12.2f %14d\n" backlog catchup deliveries;
      J.Obj
        [
          ("backlog", J.int backlog);
          ("catchup_time", J.Num catchup);
          ("minority_deliveries", J.int deliveries);
        ])
    results

(* ------------------------------------------------------------------ *)
(* X10: protocol comparison: steady-state latency and availability
   under a partition that isolates the sequencer. *)

let x10 () =
  let n = 4 in
  let vs_config = mk_vs_config ~pi:6.0 ~mu:8.0 n in
  let procs = vs_config.Vs_node.procs in
  let to_config = To_service.make_config vs_config in
  let ss_config =
    To_service.make_config ~stable_storage_latency:3.0 vs_config
  in
  let seq_config = Gcs_baseline.Sequencer.make_config ~procs in
  let wl = workload ~senders:procs ~from_time:5.0 ~spacing:10.0 ~count:8 ~tag:"c" in
  let mean_latency actions =
    let sends = Hashtbl.create 64 in
    let total = ref 0.0 and count = ref 0 in
    List.iter
      (fun (t, a) ->
        match a with
        | To_action.Bcast (p, v) -> Hashtbl.replace sends (p, v) t
        | To_action.Brcv { src; value; _ } -> (
            match Hashtbl.find_opt sends (src, value) with
            | Some t0 ->
                total := !total +. (t -. t0);
                incr count
            | None -> ())
        | To_action.To_order _ -> ())
      actions;
    if !count = 0 then nan else !total /. float_of_int !count
  in
  let vstoto_run = To_service.run to_config ~workload:wl ~failures:[] ~until:400.0 ~seed:3 in
  let ss_run = To_service.run ss_config ~workload:wl ~failures:[] ~until:400.0 ~seed:3 in
  let seq_run =
    Gcs_baseline.Sequencer.run_on ~backend:sim seq_config ~workload:wl
      ~failures:[] ~until:400.0 ~seed:3
  in
  (* Skeen with full-group addressing: decentralized timestamp order
     that must hear from every destination, on FIFO links. *)
  let skeen_run ~workload ~failures ~until ~seed =
    let module K = Gcs_skeen.Skeen in
    K.run_on
      ~backend:
        (Gcs_conformance.Service.sim Gcs_conformance.Services.skeen ~delta)
      (K.make_config ~procs)
      ~workload:(List.map (fun (t, p, v) -> (t, p, K.full_group v)) workload)
      ~failures ~until ~seed
  in
  let skeen_steady = skeen_run ~workload:wl ~failures:[] ~until:400.0 ~seed:3 in
  let steady =
    [
      ( "fixed sequencer",
        mean_latency (Timed.actions seq_run.Gcs_baseline.Sequencer.trace),
        Gcs_baseline.Sequencer.deliveries seq_run );
      ( "skeen (full group)",
        mean_latency (Timed.actions skeen_steady.Gcs_skeen.Skeen.trace),
        Gcs_skeen.Skeen.deliveries skeen_steady );
      ( "VStoTO",
        mean_latency (Timed.actions (To_service.client_trace vstoto_run)),
        To_service.deliveries vstoto_run );
      ( "VStoTO + stable storage",
        mean_latency (Timed.actions (To_service.client_trace ss_run)),
        To_service.deliveries ss_run );
    ]
  in
  row "%-28s %12s %16s\n" "protocol" "latency" "deliveries";
  List.iter
    (fun (name, lat, dels) -> row "%-28s %12.2f %16d\n" name lat dels)
    steady;
  let failures = partition_at 30.0 [ [ 0 ]; [ 1; 2; 3 ] ] in
  let wl2 = workload ~senders:[ 1; 2; 3 ] ~from_time:60.0 ~spacing:9.0 ~count:6 ~tag:"a" in
  let seq_part =
    Gcs_baseline.Sequencer.run_on ~backend:sim seq_config ~workload:wl2
      ~failures ~until:500.0 ~seed:4
  in
  let vstoto_part = To_service.run to_config ~workload:wl2 ~failures ~until:500.0 ~seed:4 in
  let skeen_part = skeen_run ~workload:wl2 ~failures ~until:500.0 ~seed:4 in
  let partitioned =
    [
      ("fixed sequencer", Gcs_baseline.Sequencer.deliveries seq_part);
      ("skeen (full group)", Gcs_skeen.Skeen.deliveries skeen_part);
      ("VStoTO", To_service.deliveries vstoto_part);
    ]
  in
  row "\nwith processor 0 isolated (majority of 3 still connected):\n";
  List.iter
    (fun (name, dels) -> row "%-28s %16d\n" (name ^ " deliveries") dels)
    partitioned;
  List.map
    (fun (name, lat, dels) ->
      J.Obj
        [
          ("phase", J.Str "steady");
          ("protocol", J.Str name);
          ("latency", J.Num lat);
          ("deliveries", J.int dels);
        ])
    steady
  @ List.map
      (fun (name, dels) ->
        J.Obj
          [
            ("phase", J.Str "partitioned");
            ("protocol", J.Str name);
            ("deliveries", J.int dels);
          ])
      partitioned

(* ------------------------------------------------------------------ *)
(* X11: capricious view changes stop after stabilization (difference 7
   in Section 1). *)

let x11 () =
  let n = 5 in
  let config = mk_vs_config n in
  let procs = config.Vs_node.procs in
  let prng = Gcs_stdx.Prng.create 17 in
  let flaps =
    List.concat
      (List.init 14 (fun i ->
           let t = 20.0 +. (float_of_int i *. 20.0) in
           let p = Gcs_stdx.Prng.pick_exn prng procs in
           let q = Gcs_stdx.Prng.pick_exn prng procs in
           if Proc.equal p q then [ (t, Fstatus.Proc_status (p, Fstatus.Ugly)) ]
           else
             [
               (t, Fstatus.Link_status (p, q, Fstatus.Bad));
               (t +. 10.0, Fstatus.Link_status (p, q, Fstatus.Good));
             ]))
  in
  let failures = flaps @ heal_at procs 320.0 in
  let run = Vs_service.run config ~workload:[] ~failures ~until:700.0 ~seed:17 in
  let cutoff = 320.0 +. Vs_node.impl_b config in
  let before, after =
    List.fold_left
      (fun (b, a) (t, action) ->
        match action with
        | Vs_action.Newview _ -> if t <= cutoff then (b + 1, a) else (b, a + 1)
        | _ -> (b, a))
      (0, 0)
      (Timed.actions run.Vs_service.trace)
  in
  row "newview events during churn (t <= %.1f): %d\n" cutoff before;
  row "newview events after stabilization:      %d   (paper: must be 0)\n" after;
  [
    J.Obj [ ("period", J.Str "churn"); ("newviews", J.int before) ];
    J.Obj [ ("period", J.Str "stabilized"); ("newviews", J.int after) ];
  ]

(* ------------------------------------------------------------------ *)
(* X12: the token stays bounded (pruning of the safe prefix) and the
   amortized message cost per delivered value. *)

let x12 () =
  row "%6s %14s %16s %18s\n" "n" "max token" "messages sent" "packets/delivery";
  let results =
    pmap
      (fun n ->
        let config = mk_vs_config n in
        let wl =
          workload ~senders:config.Vs_node.procs ~from_time:5.0 ~spacing:3.0
            ~count:40 ~tag:"t"
        in
        let run =
          Vs_service.run config ~workload:wl ~failures:[] ~until:600.0 ~seed:9
        in
        let max_entries =
          Proc.Map.fold
            (fun _ st acc -> max (Vs_node.max_token_entries st) acc)
            run.Vs_service.final_states 0
        in
        let deliveries =
          List.length
            (List.filter
               (fun (_, a) ->
                 match a with Vs_action.Gprcv _ -> true | _ -> false)
               (Timed.actions run.Vs_service.trace))
        in
        let per_delivery =
          if deliveries = 0 then nan
          else
            float_of_int run.Vs_service.packets_sent /. float_of_int deliveries
        in
        (n, max_entries, run.Vs_service.packets_sent, per_delivery))
      [ 3; 5; 7 ]
  in
  List.map
    (fun (n, max_entries, packets, per_delivery) ->
      row "%6d %14d %16d %18.2f\n" n max_entries packets per_delivery;
      J.Obj
        [
          ("n", J.int n);
          ("max_token_entries", J.int max_entries);
          ("packets_sent", J.int packets);
          ("packets_per_delivery", J.Num per_delivery);
        ])
    results

(* X13: jitter ablation — fixed delta delivery vs jittered (delta/2, delta]. *)

let x13 () =
  row "%10s %10s %10s %10s\n" "links" "mean" "max" "paper d";
  let config = mk_vs_config 5 in
  let wl =
    workload ~senders:config.Vs_node.procs ~from_time:5.0 ~spacing:9.0
      ~count:10 ~tag:"j"
  in
  let variants = [ ("fixed", false); ("jittered", true) ] in
  let seeds = [ 1; 2; 3 ] in
  let items =
    List.concat_map
      (fun (label, jitter) ->
        List.map (fun s -> (label, jitter, s)) seeds)
      variants
  in
  let samples =
    pmap
      (fun (label, jitter, seed) ->
        let engine =
          { (Gcs_sim.Engine.default_config ~delta:config.Vs_node.delta) with
            Gcs_sim.Engine.jitter }
        in
        ( label,
          safe_latencies config
            (Vs_service.run ~engine config ~workload:wl ~failures:[]
               ~until:400.0 ~seed) ))
      items
  in
  List.map
    (fun (label, _) ->
      let lats =
        List.concat_map (fun (l, ls) -> if l = label then ls else []) samples
      in
      let m = mean lats and mx = maxf lats in
      row "%10s %10.2f %10.2f %10.2f\n" label m mx (Vs_node.paper_d config);
      J.Obj
        [
          ("links", J.Str label);
          ("mean", J.Num m);
          ("max", J.Num mx);
          ("paper_d", J.Num (Vs_node.paper_d config));
        ])
    variants

(* X14: three-round vs one-round membership (Section 8, footnote 7) —
   the one-round alternative stabilizes less quickly. *)

let x14 () =
  row "%-14s %14s %16s\n" "protocol" "stabilization" "newviews (churn)";
  let n = 5 in
  let config = mk_vs_config n in
  let procs = config.Vs_node.procs in
  let protocols =
    [ ("three-round", Vs_node.Three_round); ("one-round", Vs_node.One_round) ]
  in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let items =
    List.concat_map
      (fun (label, protocol) -> List.map (fun s -> (label, protocol, s)) seeds)
      protocols
  in
  let samples =
    pmap
      (fun (label, protocol, seed) ->
        let failures =
          partition_at 60.0 [ [ 0; 1; 2 ]; [ 3; 4 ] ] @ heal_at procs 200.0
        in
        let run =
          Vs_service.run ~protocol config ~workload:[] ~failures ~until:900.0
            ~seed
        in
        ( label,
          Option.map
            (fun t -> (t -. 200.0, Vs_service.views_installed_total run))
            (Vs_service.stabilized_view_time ~q:procs run) ))
      items
  in
  List.map
    (fun (label, _) ->
      let s =
        List.filter_map (fun (l, x) -> if l = label then x else None) samples
      in
      let t = mean (List.map fst s) in
      let v = mean (List.map (fun (_, v) -> float_of_int v) s) in
      row "%-14s %14.2f %16.1f\n" label t v;
      J.Obj
        [
          ("protocol", J.Str label);
          ("stabilization", J.Num t);
          ("newviews", J.Num v);
        ])
    protocols

(* X16: throughput — the token batches, so the ring absorbs offered load
   with nearly flat latency until the token itself becomes the byte
   bottleneck (not modelled: we count entries, not bytes). *)

let x16 () =
  row "%14s %14s %12s\n" "msgs/time-unit" "delivered/unit" "mean lat";
  let n = 5 in
  let config = mk_vs_config n in
  let duration = 300.0 in
  let results =
    pmap
      (fun spacing ->
        let count = int_of_float (duration /. spacing) in
        let wl =
          workload ~senders:config.Vs_node.procs ~from_time:5.0 ~spacing ~count
            ~tag:"l"
        in
        let vs_to_config = To_service.make_config config in
        let run =
          To_service.run vs_to_config ~workload:wl ~failures:[]
            ~until:(duration +. 100.0) ~seed:2
        in
        let actions = Timed.actions (To_service.client_trace run) in
        let deliveries =
          List.length
            (List.filter
               (fun (_, a) -> match a with To_action.Brcv _ -> true | _ -> false)
               actions)
        in
        let sends = Hashtbl.create 256 in
        let lat_total = ref 0.0 and lat_count = ref 0 in
        List.iter
          (fun (t, a) ->
            match a with
            | To_action.Bcast (p, v) -> Hashtbl.replace sends (p, v) t
            | To_action.Brcv { src; value; _ } -> (
                match Hashtbl.find_opt sends (src, value) with
                | Some t0 ->
                    lat_total := !lat_total +. (t -. t0);
                    incr lat_count
                | None -> ())
            | To_action.To_order _ -> ())
          actions;
        let offered = float_of_int (count * n) /. duration in
        ( offered,
          float_of_int deliveries /. float_of_int n /. duration,
          if !lat_count = 0 then nan
          else !lat_total /. float_of_int !lat_count ))
      [ 10.0; 5.0; 2.0; 1.0; 0.5 ]
  in
  List.map
    (fun (offered, delivered, lat) ->
      row "%14.2f %14.2f %12.2f\n" offered delivered lat;
      J.Obj
        [
          ("offered_per_unit", J.Num offered);
          ("delivered_per_unit", J.Num delivered);
          ("mean_latency", J.Num lat);
        ])
    results

(* X17: throughput under faults — the same offered load as X16, but run
   through nemesis schedules. Deliveries per time unit degrade with the
   fraction of the run spent partitioned/crashed, while mean delivery
   latency grows with the reconciliation backlog released at each heal. *)

let x17 () =
  row "%-18s %14s %12s %10s\n" "schedule" "delivered/unit" "mean lat" "dropped";
  let n = 5 in
  let config = mk_vs_config n in
  let procs = config.Vs_node.procs in
  let to_config = To_service.make_config config in
  let spacing = 2.0 in
  let duration = 300.0 in
  let count = int_of_float (duration /. spacing) in
  let wl = workload ~senders:procs ~from_time:5.0 ~spacing ~count ~tag:"f" in
  let schedules =
    (None, "clean")
    :: List.filter_map
         (fun name ->
           Option.map
             (fun s -> (Some s, name))
             (Gcs_nemesis.Scenario.find_builtin ~procs name))
         [ "split-heal"; "quorum-flap"; "churn" ]
    @ List.map
        (fun seed ->
          let s = Gcs_nemesis.Gen.scenario ~procs ~seed () in
          (Some s, s.Gcs_nemesis.Scenario.name))
        [ 7; 21 ]
  in
  let results =
    pmap
      (fun (scenario, name) ->
        let failures, until =
          match scenario with
          | None -> ([], duration +. 100.0)
          | Some s ->
              ( Gcs_nemesis.Scenario.compile ~procs s,
                max (duration +. 100.0)
                  (Gcs_nemesis.Scenario.stabilization_time s +. 150.0) )
        in
        let run = To_service.run to_config ~workload:wl ~failures ~until ~seed:2 in
        let actions = Timed.actions (To_service.client_trace run) in
        let sends = Hashtbl.create 256 in
        let lats = ref [] and deliveries = ref 0 in
        List.iter
          (fun (t, a) ->
            match a with
            | To_action.Bcast (p, v) -> Hashtbl.replace sends (p, v) t
            | To_action.Brcv { src; value; _ } -> (
                incr deliveries;
                match Hashtbl.find_opt sends (src, value) with
                | Some t0 -> lats := (t -. t0) :: !lats
                | None -> ())
            | To_action.To_order _ -> ())
          actions;
        ( name,
          float_of_int !deliveries /. float_of_int n /. duration,
          mean !lats,
          run.To_service.packets_dropped ))
      schedules
  in
  List.map
    (fun (name, delivered, lat, dropped) ->
      row "%-18s %14.2f %12.2f %10d\n" name delivered lat dropped;
      J.Obj
        [
          ("schedule", J.Str name);
          ("delivered_per_unit", J.Num delivered);
          ("mean_latency", J.Num lat);
          ("dropped", J.int dropped);
        ])
    results

(* ------------------------------------------------------------------ *)
(* X18: observability — the full metrics registry of one nemesis run
   (the split-heal scenario), embedded in the JSON results so downstream
   tooling reads run metrics and bench rows from one file. *)

let x18 () =
  let n = 5 in
  let vs_config = mk_vs_config n in
  let config = To_service.make_config vs_config in
  let procs = vs_config.Vs_node.procs in
  let scenario =
    Option.get (Gcs_nemesis.Scenario.find_builtin ~procs "split-heal")
  in
  let outcome = Gcs_nemesis.Harness.run ~config ~seed:1 scenario in
  let metrics = outcome.Gcs_nemesis.Harness.metrics in
  Format.printf "%a@." Gcs_stdx.Metrics.pp metrics;
  let metrics_j =
    match J.of_string (Gcs_stdx.Metrics.to_json metrics) with
    | Ok v -> v
    | Error e -> J.Str ("unparseable metrics snapshot: " ^ e)
  in
  [
    J.Obj
      [
        ("scenario", J.Str "split-heal");
        ("seed", J.int 1);
        ("passed", J.Bool (Gcs_nemesis.Harness.passed outcome));
        ("metrics", metrics_j);
      ];
  ]

(* ------------------------------------------------------------------ *)
(* X19: raw bus transport throughput — wall-clock msgs/sec of a relay
   flood between two domains keeping a window of packets in flight,
   measuring the serialize → mailbox → deserialize → handle path with no
   protocol on top. The full VStoTO stack over the bus is X20's
   unbatched bus row. *)

let wall_now () = (Unix.gettimeofday [@gcs.lint.allow "D2"]) ()

let x19 () =
  row "%12s %4s %10s %10s %14s\n" "mode" "n" "wall s" "packets" "msgs/sec";
  let module I = Gcs_transport.Iface in
  let window = 32 in
  let handlers =
    {
      I.on_start =
        (fun me s ->
          if me = 0 then
            (s, List.init window (fun _ -> I.Send { dst = 1; packet = "ping" }))
          else (s, []));
      on_input = (fun _ ~now:_ () s -> (s, []));
      on_packet =
        (fun _me ~now:_ ~src packet s -> (s, [ I.Send { dst = src; packet } ]));
      on_timer = (fun _ ~now:_ ~id:_ s -> (s, []));
    }
  in
  let t0 = wall_now () in
  let result =
    Gcs_transport.Bus.run I.string_codec ~procs:(Proc.all ~n:2) ~handlers
      ~init:(fun _ -> ())
      ~inputs:[] ~failures:[] ~until:2.0 ~seed:3
  in
  let wall = wall_now () -. t0 in
  let rate = float_of_int result.I.packets_sent /. wall in
  row "%12s %4d %10.2f %10d %14.0f\n" "raw-relay" 2 wall result.I.packets_sent
    rate;
  [
    J.Obj
      [
        ("mode", J.Str "raw-relay");
        ("backend", J.Str "bus");
        ("n", J.int 2);
        ("window", J.int window);
        ("wall_s", J.Num wall);
        ("packets_sent", J.int result.I.packets_sent);
        ("msgs_per_s", J.Num rate);
      ];
  ]

(* X20: batched throughput — the open-loop workload of `gcs load`
   through the full VStoTO stack with the submission batch window on
   and off, on both backends (open loop: the offered load never waits
   for deliveries). The window coalesces everything queued between
   flushes into one Msg.Batch gpsnd, so the ring carries a handful of
   batch entries instead of one entry per client value. The bus rows
   preload their values at t=0 and measure real wall-clock rates, which
   the drift gate holds within 3x of the baseline; the unbatched one
   runs 1,000 values per origin so that a run lasts long enough (about
   0.1 s) for its rate to spread well inside that bound. The sim rows
   submit one value per time unit per origin: at that pace a token visit
   closes some batches and the 2-unit window others, so their batch
   counts, which the gate compares exactly, move with either path. Their
   rates only time the simulator. *)

let x20 () =
  row "%10s %8s %4s %8s %8s %8s %9s %8s %14s\n" "mode" "backend" "n" "window"
    "values" "wall s" "deliv" "batches" "client msg/s";
  let throughput ~backend ~n ~count ~window =
    let procs = Proc.all ~n in
    let vs_config, spacing =
      match backend with
      | `Sim ->
          ({ Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }, 1.0)
      | `Bus ->
          ( { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 },
            0.0 )
    in
    let config = To_service.make_config ?batch_window:window vs_config in
    let wl =
      List.concat_map
        (fun p ->
          List.init count (fun k ->
              (float_of_int k *. spacing, p, Printf.sprintf "x%d.%d" p k)))
        procs
    in
    let total = n * count in
    let observe, stop =
      Gcs_conformance.Service.drained
        (module Gcs_conformance.Services.Vstoto)
        config ~workload:wl ~after:Float.neg_infinity
    in
    let backend_impl, backend_name, until =
      match backend with
      | `Sim ->
          ( Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta:1.0),
            "sim",
            2000.0 )
      | `Bus -> (Gcs_transport.Bus.backend (), "bus", 60.0)
    in
    let t0 = wall_now () in
    let run =
      To_service.run_on ?observe ~stop ~backend:backend_impl config
        ~workload:wl ~failures:[] ~until ~seed:11
    in
    let wall = wall_now () -. t0 in
    let deliveries = To_service.deliveries run in
    let client_rate = float_of_int deliveries /. wall in
    let batches, batch_mean, batch_max =
      match
        Gcs_stdx.Metrics.histogram run.To_service.metrics "to.batch_size"
      with
      | Some (_, c, sum, max_v) when c > 0 -> (c, sum /. float_of_int c, max_v)
      | _ -> (0, 0.0, 0.0)
    in
    let mode = match window with None -> "unbatched" | Some _ -> "batched" in
    row "%10s %8s %4d %8s %8d %8.2f %9d %8d %14.0f\n" mode backend_name n
      (match window with None -> "off" | Some w -> Printf.sprintf "%g" w)
      total wall deliveries batches client_rate;
    J.Obj
      [
        ("mode", J.Str mode);
        ("backend", J.Str backend_name);
        ("n", J.int n);
        ( "batch_window",
          match window with None -> J.Null | Some w -> J.Num w );
        ("client_msgs", J.int total);
        ("wall_s", J.Num wall);
        ("client_deliveries", J.int deliveries);
        ("gpsnd_batches", J.int batches);
        ("batch_mean", J.Num batch_mean);
        ("batch_max", J.Num batch_max);
        ("client_msgs_per_s", J.Num client_rate);
        ("msgs_per_s", J.Num client_rate);
      ]
  in
  (* Bound in order: the elements of a list literal are evaluated right
     to left, which would run (and print) the bus rows first. *)
  let sim = throughput ~backend:`Sim ~n:3 ~count:200 ~window:None in
  let sim_batched =
    throughput ~backend:`Sim ~n:3 ~count:200 ~window:(Some 2.0)
  in
  let bus = throughput ~backend:`Bus ~n:3 ~count:1000 ~window:None in
  let bus_batched =
    throughput ~backend:`Bus ~n:3 ~count:5000 ~window:(Some 0.02)
  in
  [ sim; sim_batched; bus; bus_batched ]

(* X21: competing total-order backends — VStoTO (the paper's
   partitionable stack), the fixed-sequencer baseline, and the Skeen
   timestamp backend, under the shared To_action trace vocabulary.
   Latency rows run on the simulator and report {e simulated-time}
   delivery latency of a lone probe submitted after stabilization:
   Skeen needs 3δ (propose → proposal → commit), the sequencer 2 hops,
   and VStoTO a token rotation. Throughput rows preload an open-loop
   workload on the real bus (1,500 values per origin, so that a run
   lasts long enough for a stable rate) and report wall-clock client
   msgs/sec, which the drift gate holds within 3x of the baseline. The
   matrix is the paper's trade-off made concrete: the cheap baselines
   win clean-network latency, the partitionable stack buys fault
   tolerance with a bounded (Theorem 7.1) latency premium. *)

let x21 () =
  row "%12s %10s %8s %4s %12s %12s %14s\n" "to-backend" "mode" "backend" "n"
    "latency" "deliv" "client msg/s";
  let n = 4 in
  let procs = Proc.all ~n in
  let probe = "probe" in
  let submit_at = 50.0 in
  let brcv_times actions =
    List.filter_map
      (fun (t, a) ->
        match a with
        | To_action.Brcv { value; _ } when String.equal value probe -> Some t
        | _ -> None)
      actions
  in
  let latency_row name actions =
    let times = brcv_times actions in
    let lats = List.map (fun t -> t -. submit_at) times in
    let mean =
      match lats with
      | [] -> nan
      | _ -> List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats)
    in
    let worst = List.fold_left Float.max 0.0 lats in
    row "%12s %10s %8s %4d %12.2f %12d %14s\n" name "latency" "sim" n worst
      (List.length times) "-";
    J.Obj
      [
        ("to_backend", J.Str name);
        ("mode", J.Str "latency");
        ("backend", J.Str "sim");
        ("n", J.int n);
        ("deliveries", J.int (List.length times));
        ("mean_latency", J.Num mean);
        ("max_latency", J.Num worst);
      ]
  in
  (* The drift gate matches rows by position: keep this order. *)
  let services =
    Gcs_conformance.Services.[ vstoto; sequencer; skeen ]
  in
  let latency (module S : Gcs_conformance.Service.S) =
    let config =
      S.configure
        (To_service.make_config
           { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 })
    in
    let run =
      Gcs_conformance.Service.run (module S)
        ~backend:(Gcs_conformance.Service.sim (module S) ~delta:1.0)
        config
        ~workload:[ (submit_at, 0, S.lift ~dests:[] config 0 probe) ]
        ~failures:[] ~until:200.0 ~seed:7
    in
    latency_row S.name
      (Timed.actions (S.client_trace run.Gcs_transport.Iface.trace))
  in
  let throughput_row name ~total ~deliveries ~packets wall =
    let client_rate = float_of_int deliveries /. wall in
    row "%12s %10s %8s %4d %12s %12d %14.0f\n" name "throughput" "bus" n "-"
      deliveries client_rate;
    J.Obj
      [
        ("to_backend", J.Str name);
        ("mode", J.Str "throughput");
        ("backend", J.Str "bus");
        ("n", J.int n);
        ("client_msgs", J.int total);
        ("wall_s", J.Num wall);
        ("client_deliveries", J.int deliveries);
        ("packets_sent", J.int packets);
        ("client_msgs_per_s", J.Num client_rate);
        ("msgs_per_s", J.Num client_rate);
      ]
  in
  let count = 1500 in
  let total = n * count in
  let values p = List.init count (fun k -> Printf.sprintf "y%d.%d" p k) in
  (* One configuration for every service: VStoTO reads the bus timing
     and batch window, the others only the processor set. *)
  let throughput (module S : Gcs_conformance.Service.S) =
    let config =
      S.configure
        (To_service.make_config ~batch_window:0.02
           { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 })
    in
    let wl =
      List.concat_map
        (fun p ->
          List.map
            (fun v -> (0.0, p, S.lift ~dests:[] config p v))
            (values p))
        procs
    in
    let observe, stop =
      Gcs_conformance.Service.drained (module S) config ~workload:wl
        ~after:Float.neg_infinity
    in
    let t0 = wall_now () in
    let run =
      Gcs_conformance.Service.run (module S) ?observe ~stop
        ~backend:(Gcs_transport.Bus.backend ())
        config ~workload:wl ~failures:[] ~until:60.0 ~seed:11
    in
    let wall = wall_now () -. t0 in
    throughput_row S.name ~total
      ~deliveries:
        (snd
           (Gcs_conformance.Service.tally
              (S.client_trace run.Gcs_transport.Iface.trace)))
      ~packets:run.Gcs_transport.Iface.packets_sent wall
  in
  (* The operands of [@] are evaluated right to left: bind the latency
     rows first so they run and print first. *)
  let latencies = List.map latency services in
  latencies @ List.map throughput services

(* ------------------------------------------------------------------ *)
(* X22: differential fuzzing throughput — executions per second for each
   backend pair (each execution runs the schedule twice and judges
   per-node delivered orders), plus the fuzzy state-hash throughput.
   These rates set the CI budgets for the 2000-exec differential
   smokes. *)

let x22 () =
  row "%18s %8s %10s %12s %10s\n" "pair" "execs" "wall s" "execs/sec"
    "features";
  let n = 4 in
  let procs = Proc.all ~n in
  let config =
    To_service.make_config
      { Vs_node.procs; p0 = procs; pi = 8.0; mu = 10.0; delta = 1.0 }
  in
  let budget pair =
    match pair.Gcs_fuzz.Differential.backend with
    | Gcs_fuzz.Differential.Bus -> 30
    | Gcs_fuzz.Differential.Sim -> 400
  in
  let pair_rows =
    List.map
      (fun pair ->
        let execs = budget pair in
        let t0 = wall_now () in
        let outcome =
          Gcs_fuzz.Fuzz.run ~pair ~jobs:!jobs ~config ~seed:3 ~execs ()
        in
        let wall = wall_now () -. t0 in
        let name = pair.Gcs_fuzz.Differential.name in
        let rate = float_of_int execs /. wall in
        row "%18s %8d %10.2f %12.1f %10d\n" name execs wall rate
          outcome.Gcs_fuzz.Fuzz.stats.Gcs_fuzz.Fuzz.features;
        J.Obj
          [
            ("pair", J.Str name);
            ( "backend",
              J.Str
                (match pair.Gcs_fuzz.Differential.backend with
                | Gcs_fuzz.Differential.Bus -> "bus"
                | Gcs_fuzz.Differential.Sim -> "sim") );
            ("execs", J.int execs);
            ("wall_s", J.Num wall);
            ("execs_per_s", J.Num rate);
            ("features", J.int outcome.Gcs_fuzz.Fuzz.stats.Gcs_fuzz.Fuzz.features);
          ])
      Gcs_fuzz.Differential.all
  in
  (* Fuzzy-hash throughput: snapshots per second through the rolling-hash
     chunker, on synthetic node-state strings of realistic size. *)
  let snaps =
    List.init 200 (fun i ->
        String.concat ","
          (List.init 60 (fun k -> Printf.sprintf "field%d=%d" k (i * (k + 3)))))
  in
  let bytes =
    List.fold_left (fun acc s -> acc + String.length s) 0 snaps
  in
  let reps = 50 in
  let t0 = wall_now () in
  for _ = 1 to reps do
    ignore (Gcs_fuzz.Coverage.fuzzy_features ~tag:"bench" snaps)
  done;
  let wall = wall_now () -. t0 in
  let snaps_per_s = float_of_int (List.length snaps * reps) /. wall in
  let mb_per_s = float_of_int (bytes * reps) /. wall /. 1.0e6 in
  row "%18s %8d %10.2f %12.0f %10.1f\n" "fuzzy-hash" (List.length snaps * reps)
    wall snaps_per_s mb_per_s;
  pair_rows
  @ [
      J.Obj
        [
          ("pair", J.Str "fuzzy-hash");
          ("snapshots", J.int (List.length snaps * reps));
          ("wall_s", J.Num wall);
          ("snapshots_per_s", J.Num snaps_per_s);
          ("mb_per_s", J.Num mb_per_s);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* M: bechamel micro-benchmarks (M1–M7: core machinery; M8: incremental
   checker throughput at growing trace lengths; M9: pool dispatch
   overhead; M10: hot-path accumulation; M11: lock instrumentation
   overhead). *)

let to_trace_of_len ~n k =
  let per = n + 1 in
  List.concat
    (List.init (k / per) (fun i ->
         let v = Printf.sprintf "t%d" i in
         To_action.Bcast (0, v)
         :: List.map
              (fun q -> To_action.Brcv { src = 0; dst = q; value = v })
              (Proc.all ~n)))

let vs_trace_of_len ~n k =
  let per = n + 1 in
  List.concat
    (List.init (k / per) (fun i ->
         let m = Printf.sprintf "w%d" i in
         (Vs_action.Gpsnd { sender = 0; msg = m } : string Vs_action.t)
         :: List.map
              (fun q -> Vs_action.Gprcv { src = 0; dst = q; msg = m })
              (Proc.all ~n)))

let micro () =
  let open Bechamel in
  let to_params = { To_machine.procs = Proc.all ~n:4; equal_value = Value.equal } in
  let to_automaton = To_machine.automaton to_params in
  let to_state =
    let s = To_machine.initial to_params in
    Option.get
      (to_automaton.Gcs_automata.Automaton.transition s (To_action.Bcast (0, "x")))
  in
  let vs_params =
    { Vs_machine.procs = Proc.all ~n:4; p0 = Proc.all ~n:4;
      equal_msg = String.equal; weak = false }
  in
  let vs_automaton = Vs_machine.automaton vs_params in
  let vs_state =
    Option.get
      (vs_automaton.Gcs_automata.Automaton.transition (Vs_machine.initial vs_params)
         (Vs_action.Gpsnd { sender = 0; msg = "m" }))
  in
  let sys_params =
    Vstoto_system.make_params ~procs:(Proc.all ~n:4) ~p0:(Proc.all ~n:4)
      ~quorums:(Quorum.majorities ~n:4) ()
  in
  let sys_automaton = Vstoto_system.automaton sys_params in
  let sys_state =
    Option.get
      (sys_automaton.Gcs_automata.Automaton.transition
         sys_automaton.Gcs_automata.Automaton.initial
         (Sys_action.Bcast (0, "x")))
  in
  let to_trace = to_trace_of_len ~n:4 500 in
  let vs_trace_events = vs_trace_of_len ~n:4 300 in
  let eq_workload =
    List.init 256 (fun i -> (float_of_int (i * 7 mod 97), i))
  in
  let sim_config = mk_vs_config 4 in
  let sim_to_config = To_service.make_config sim_config in
  let sim_wl = workload ~senders:(Proc.all ~n:4) ~from_time:2.0 ~spacing:5.0 ~count:4 ~tag:"b" in
  let m8 =
    List.concat_map
      (fun k ->
        let to_tr = to_trace_of_len ~n:4 k in
        let vs_tr = vs_trace_of_len ~n:4 k in
        [
          Test.make ~name:(Printf.sprintf "M8: TO checker (%dk events)" (k / 1000))
            (Staged.stage (fun () -> To_trace_checker.check to_params to_tr));
          Test.make ~name:(Printf.sprintf "M8: VS checker (%dk events)" (k / 1000))
            (Staged.stage (fun () -> Vs_trace_checker.check vs_params vs_tr));
        ])
      [ 1_000; 10_000; 100_000 ]
  in
  let pool_items = List.init 64 (fun i -> i) in
  let m9 =
    [
      Test.make ~name:"M9: List.map (64 trivial items)"
        (Staged.stage (fun () -> List.map (fun x -> x * 2) pool_items));
      Test.make ~name:"M9: Pool.map jobs=4 (64 trivial items)"
        (Staged.stage (fun () ->
             Gcs_stdx.Pool.map ~jobs:4 (fun x -> x * 2) pool_items));
    ]
  in
  (* M10: the hot-path accumulation the PR replaced. `xs @ [x]` copies
     the whole accumulator per element (quadratic over a burst), which
     is what the outbuf / delay / order fields used to do; Tape.snoc
     appends in place behind a persistent slice (amortized O(1)). *)
  let append_items = List.init 1_000 (fun i -> i) in
  let m10 =
    [
      Test.make ~name:"M10: accumulate 1k via xs @ [x] (quadratic)"
        (Staged.stage (fun () ->
             List.fold_left (fun acc x -> acc @ [ x ]) [] append_items));
      Test.make ~name:"M10: accumulate 1k via Tape.snoc (amortized O(1))"
        (Staged.stage (fun () ->
             List.fold_left Gcs_stdx.Tape.snoc (Gcs_stdx.Tape.empty ())
               append_items));
    ]
  in
  (* M11: what lock instrumentation costs on the bus's hottest path (a
     status-matrix read per packet send). Raw Mutex is the floor; an
     unregistered Lock adds one wrapper call; a registered Lock adds the
     held-set bookkeeping and a registry-table update per acquisition. *)
  let m11 =
    let raw = Mutex.create () in
    let plain = Gcs_stdx.Lock.create "bench.plain" in
    let reg = Gcs_stdx.Lock.registry () in
    let instr = Gcs_stdx.Lock.create ~registry:reg "bench.instr" in
    let counter = ref 0 in
    [
      Test.make ~name:"M11: raw Mutex lock/unlock"
        (Staged.stage (fun () ->
             Mutex.lock raw;
             incr counter;
             Mutex.unlock raw));
      Test.make ~name:"M11: Lock.with_lock (uninstrumented)"
        (Staged.stage (fun () ->
             Gcs_stdx.Lock.with_lock plain (fun () -> incr counter)));
      Test.make ~name:"M11: Lock.with_lock (registry attached)"
        (Staged.stage (fun () ->
             Gcs_stdx.Lock.with_lock instr (fun () -> incr counter)));
    ]
  in
  let tests =
    [
      Test.make ~name:"TO-machine step"
        (Staged.stage (fun () ->
             to_automaton.Gcs_automata.Automaton.transition to_state
               (To_action.To_order ("x", 0))));
      Test.make ~name:"VS-machine step"
        (Staged.stage (fun () ->
             vs_automaton.Gcs_automata.Automaton.transition vs_state
               (Vs_action.Vs_order { msg = "m"; sender = 0; viewid = View_id.g0 })));
      Test.make ~name:"VStoTO-system step"
        (Staged.stage (fun () ->
             sys_automaton.Gcs_automata.Automaton.transition sys_state
               (Sys_action.Label_act (0, "x"))));
      Test.make ~name:"TO trace checker (500 events)"
        (Staged.stage (fun () -> To_trace_checker.check to_params to_trace));
      Test.make ~name:"VS trace checker (300 events)"
        (Staged.stage (fun () -> Vs_trace_checker.check vs_params vs_trace_events));
      Test.make ~name:"event queue add+pop (256)"
        (Staged.stage (fun () ->
             let q =
               List.fold_left
                 (fun q (t, v) -> Gcs_sim.Event_queue.add q ~time:t v)
                 Gcs_sim.Event_queue.empty eq_workload
             in
             let rec drain q =
               match Gcs_sim.Event_queue.pop q with
               | Some (_, _, q) -> drain q
               | None -> ()
             in
             drain q));
      Test.make ~name:"simulated TO service (50 time units)"
        (Staged.stage (fun () ->
             To_service.run sim_to_config ~workload:sim_wl ~failures:[]
               ~until:50.0 ~seed:1));
    ]
    @ m8 @ m9 @ m10 @ m11
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      (* Collect then sort by name: the fold visits results in hash
         order, and both the printed table and the JSON rows should be
         stable across runs. *)
      let entries =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold
             (fun name result acc -> (name, result) :: acc)
             analyzed [])
      in
      List.map
        (fun (name, result) ->
          let est =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Some est
            | _ -> None
          in
          (match est with
          | Some est -> row "%-42s %14.1f ns/run\n" name est
          | None -> row "%-42s %14s\n" name "(no estimate)");
          J.Obj
            [
              ("name", J.Str name);
              ( "ns_per_run",
                match est with Some e -> J.Num e | None -> J.Null );
            ])
        entries)
    tests

(* --check-drift BASELINE.json: each section that ran is matched with the
   baseline section of the same id, and each of its rows with the
   baseline row at the same position. Three rules:
   - the section's wall clock may grow at most 3x (floored at 50 ms:
     shorter timings are noise);
   - a bus row (backend "bus") runs on the wall clock: its
     [client_msgs_per_s] may fall at most 3x, and nothing else in it is
     gated;
   - every other row runs on simulated time and is the same at any
     --jobs: each field, nested ones included, whose name does not end
     in [_s] (wall-clock seconds and per-second rates) must equal the
     baseline exactly.
   A section missing from the baseline, or with another row count, fails
   as well. *)

(* The first gated field where [cur] differs from [base], as a path with
   both values ([None] where a side lacks the field). *)
let rec first_difference path base cur =
  match (base, cur) with
  | J.Obj bs, J.Obj cs ->
      List.map fst cs
      @ List.filter (fun k -> not (List.mem_assoc k cs)) (List.map fst bs)
      |> List.filter (fun k -> not (String.ends_with ~suffix:"_s" k))
      |> List.find_map (fun k ->
             let path = path ^ "." ^ k in
             match (List.assoc_opt k bs, List.assoc_opt k cs) with
             | Some b, Some c -> first_difference path b c
             | b, c -> Some (path, b, c))
  | J.Arr bs, J.Arr cs when List.compare_lengths bs cs = 0 ->
      List.combine bs cs
      |> List.mapi (fun i (b, c) ->
             first_difference (Printf.sprintf "%s[%d]" path i) b c)
      |> List.find_map Fun.id
  | _ -> if base = cur then None else Some (path, Some base, Some cur)

let check_drift file =
  let baseline =
    match Result.bind (Gcs_stdx.Fileio.read_file file) J.of_string with
    | Ok json ->
        Option.bind (J.member "sections" json) J.to_list
        |> Option.value ~default:[]
    | Error e ->
        Printf.eprintf "error: cannot read %s: %s\n" file e;
        exit 2
  in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  let floor_s = 0.05 in
  let show = function None -> "absent" | Some v -> J.encode v in
  let rate r = Option.bind (J.member "client_msgs_per_s" r) J.to_float in
  let bus r = J.member "backend" r = Some (J.Str "bus") in
  Printf.printf "\ndrift check against %s:\n" file;
  List.iter
    (fun s ->
      match
        List.find_opt (fun b -> J.member "id" b = Some (J.Str s.id)) baseline
      with
      | None -> fail "  %-4s FAILED: not in %s\n" s.id file
      | Some b ->
          let base_wall =
            Option.value ~default:0.0
              (Option.bind (J.member "wall_clock_s" b) J.to_float)
          in
          let allowed = 3.0 *. Float.max base_wall floor_s in
          if s.wall_s > allowed then
            fail "  %-4s FAILED: wall %.3fs vs baseline %.3fs (allowed %.3fs)\n"
              s.id s.wall_s base_wall allowed
          else
            Printf.printf "  %-4s ok: wall %.3fs vs baseline %.3fs\n" s.id
              s.wall_s base_wall;
          let base_rows =
            Option.value ~default:[] (Option.bind (J.member "rows" b) J.to_list)
          in
          (* Compare after a round trip, so that the current rows read as
             the baseline's do (NaN as null, floats as printed). *)
          let rows =
            match J.of_string (J.encode (J.Arr s.rows)) with
            | Ok (J.Arr rows) -> rows
            | _ -> assert false
          in
          if List.compare_lengths base_rows rows <> 0 then
            fail "  %-4s FAILED: %d rows vs %d in the baseline\n" s.id
              (List.length rows) (List.length base_rows)
          else
            List.iteri
              (fun i (base, cur) ->
                if bus base && bus cur then
                  match (rate base, rate cur) with
                  | None, _ -> ()
                  | Some b, Some c when c >= b /. 3.0 ->
                      Printf.printf
                        "  %-4s ok: row %d %.0f client msgs/s vs baseline %.0f\n"
                        s.id i c b
                  | Some b, c ->
                      fail
                        "  %-4s FAILED: row %d client_msgs_per_s %s vs baseline \
                         %.0f (floor %.0f)\n"
                        s.id i
                        (show (Option.map (fun c -> J.Num c) c))
                        b (b /. 3.0)
                else
                  Option.iter
                    (fun (path, b, c) ->
                      fail "  %-4s FAILED: row %d%s = %s vs baseline %s\n"
                        s.id i path (show c) (show b))
                    (first_difference "" base cur))
              (List.combine base_rows rows))
    (List.rev !recorded);
  if !failures > 0 then begin
    Printf.printf
      "%d drift failure(s). If the change is deliberate, re-record the \
       baseline: dune exec bench/main.exe -- --quick --jobs 2 --json %s\n"
      !failures file;
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let rec opt_of flag = function
    | [] | [ _ ] -> None
    | a :: b :: rest -> if a = flag then Some b else opt_of flag (b :: rest)
  in
  let json_file = opt_of "--json" args in
  let drift_baseline = opt_of "--check-drift" args in
  only :=
    Option.map
      (fun s ->
        List.filter (fun id -> id <> "") (String.split_on_char ',' s))
      (opt_of "--only" args);
  jobs :=
    (match opt_of "--jobs" args with
    | Some s -> (
        match int_of_string_opt s with
        | Some k when k >= 1 -> k
        | _ ->
            Printf.eprintf "error: --jobs expects a positive integer\n";
            exit 2)
    | None -> Gcs_stdx.Pool.default_jobs ());
  Printf.printf
    "Reproduction harness: Fekete, Lynch, Shvartsman -- Specifying and Using \
     a Partitionable Group Communication Service\n";
  if !jobs > 1 then Printf.printf "(sweeps run on %d domains)\n" !jobs;
  section "X6" "view stabilization after partition (measured vs b)" x6;
  section "X7" "safe-delivery latency (measured vs d = 2pi + n*delta)" x7;
  section "X8" "end-to-end TO latency after stabilization (Theorem 7.1)" x8;
  section "X9" "post-merge catch-up time vs backlog size" x9;
  section "X10" "comparison with baselines" x10;
  section "X11" "view churn before vs after stabilization" x11;
  section "X12" "token size and message cost (ablation: pruning works)" x12;
  section "X13" "jitter ablation (safe latency, fixed vs jittered links)" x13;
  section "X14" "membership protocol ablation (stabilization after heal)" x14;
  section "X16" "offered load sweep (n=5)" x16;
  section "X17" "throughput under nemesis schedules (n=5)" x17;
  section "X18" "observability: metrics registry of a nemesis run" x18;
  section "X19" "bus transport throughput (wall-clock msgs/sec)" x19;
  section "X20" "batched throughput (open-loop load, both backends)" x20;
  section "X21" "total-order backends: VStoTO vs sequencer vs Skeen" x21;
  section "X22" "differential fuzzing throughput (execs/sec per pair)" x22;
  if not quick then
    section "M" "micro-benchmarks (bechamel; time per run)" micro;
  (match json_file with
  | None -> ()
  | Some file ->
      let sections = List.rev !recorded in
      let json =
        J.Obj
          [
            ( "harness",
              J.Str "gcs bench/main.exe (Fekete-Lynch-Shvartsman reproduction)"
            );
            ("jobs", J.int !jobs);
            ("quick", J.Bool quick);
            ( "total_wall_s",
              J.Num (List.fold_left (fun a s -> a +. s.wall_s) 0.0 sections) );
            ( "sections",
              J.Arr
                (List.map
                   (fun s ->
                     J.Obj
                       [
                         ("id", J.Str s.id);
                         ("title", J.Str s.title);
                         ("wall_clock_s", J.Num s.wall_s);
                         ("rows", J.Arr s.rows);
                       ])
                   sections) );
          ]
      in
      let oc = open_out file in
      output_string oc (J.encode json);
      output_string oc "\n";
      close_out oc;
      Printf.printf "\nwrote %s\n" file);
  Option.iter check_drift drift_baseline;
  Printf.printf "\ndone.\n"
