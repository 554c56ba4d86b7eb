(* Tests for the Skeen timestamp total-order backend: full-group runs
   against the classic TO oracle, multi-group runs against the
   group-order oracle, the 3-hop latency contrast with the token ring,
   codec totality, sim-vs-bus agreement through the transport seam, and
   the ordered delivery queue against a reference scan of the pending
   set. *)

open Gcs_core
open Gcs_skeen

let procs = Proc.all ~n:4
let delta = 1.0
let config = Skeen.make_config ~procs

(* The simulator with Skeen's engine configuration (FIFO links). *)
let sim ~delta =
  Gcs_conformance.Service.sim Gcs_conformance.Services.skeen ~delta

let full_workload ~senders ~from_time ~spacing ~count =
  List.concat_map
    (fun (i, p) ->
      List.init count (fun k ->
          ( from_time +. (float_of_int k *. spacing) +. (0.17 *. float_of_int i),
            p,
            Skeen.full_group (Printf.sprintf "s%d.%d" p k) )))
    (List.mapi (fun i p -> (i, p)) senders)

let check_ok label = function
  | Ok () -> ()
  | Error detail -> Alcotest.failf "%s: %s" label detail

let check_invariants run =
  match Skeen.node_invariant_failure run.Skeen.final_nodes with
  | None -> ()
  | Some (check, detail) -> Alcotest.failf "%s: %s" check detail

let deliveries_at p run =
  List.length
    (List.filter
       (fun (_, a) ->
         match a with
         | To_action.Brcv { dst; _ } -> Proc.equal dst p
         | _ -> false)
       (Timed.actions run.Skeen.trace))

let test_steady_state () =
  List.iter
    (fun seed ->
      let workload =
        full_workload ~senders:procs ~from_time:5.0 ~spacing:5.0 ~count:10
      in
      let run =
        Skeen.run_on ~backend:(sim ~delta) config ~workload ~failures:[] ~until:300.0 ~seed
      in
      (match Skeen.to_conforms config run with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "skeen trace rejected: %s"
            (Format.asprintf "%a" To_trace_checker.pp_error e));
      check_ok "group order" (Skeen.check_group_order config ~workload run.trace);
      check_ok "complete" (Skeen.check_complete config ~workload run.trace);
      Alcotest.(check int) "everything delivered everywhere"
        (Skeen.expected_deliveries config workload)
        (Skeen.deliveries run);
      check_invariants run;
      Proc.Map.iter
        (fun p node ->
          Alcotest.(check int)
            (Printf.sprintf "no pending at %d" p)
            0
            (Skeen.node_pending node);
          Alcotest.(check int)
            (Printf.sprintf "no outstanding at %d" p)
            0
            (Skeen.node_outstanding node))
        run.final_nodes)
    [ 1; 2; 3 ]

let test_multi_group () =
  (* Overlapping subsets: {0,1}, {1,2,3}, {0,2} and the full group, from
     several origins (an origin need not address itself). *)
  List.iter
    (fun seed ->
      let subset i =
        match i mod 4 with
        | 0 -> [ 0; 1 ]
        | 1 -> [ 1; 2; 3 ]
        | 2 -> [ 0; 2 ]
        | _ -> []
      in
      let workload =
        List.init 24 (fun i ->
            let p = List.nth procs (i mod 4) in
            ( 5.0 +. (1.3 *. float_of_int i),
              p,
              { Skeen.value = Printf.sprintf "m%d.%d" p i; dests = subset i } ))
      in
      let run =
        Skeen.run_on ~backend:(sim ~delta) config ~workload ~failures:[] ~until:200.0 ~seed
      in
      check_ok "group order" (Skeen.check_group_order config ~workload run.trace);
      check_ok "complete" (Skeen.check_complete config ~workload run.trace);
      check_invariants run;
      (* Per-node counts follow from the destination sets alone. *)
      List.iter
        (fun p ->
          let expected =
            List.length
              (List.filter
                 (fun (_, _, input) ->
                   List.exists (Proc.equal p)
                     (Skeen.normalize_dests config input.Skeen.dests))
                 workload)
          in
          Alcotest.(check int)
            (Printf.sprintf "deliveries at %d" p)
            expected (deliveries_at p run))
        procs)
    [ 11; 12; 13 ]

let test_sender_fifo () =
  (* One origin, one destination subset: FIFO links force submission
     order at every destination. *)
  let dests = [ 0; 2 ] in
  let workload =
    List.init 12 (fun k ->
        ( 5.0 +. (0.4 *. float_of_int k),
          3,
          { Skeen.value = Printf.sprintf "f%d" k; dests } ))
  in
  let run = Skeen.run_on ~backend:(sim ~delta) config ~workload ~failures:[] ~until:100.0 ~seed:5 in
  check_ok "group order" (Skeen.check_group_order config ~workload run.trace);
  check_ok "complete" (Skeen.check_complete config ~workload run.trace);
  let expected = List.init 12 (fun k -> Printf.sprintf "3:f%d" k) in
  List.iter
    (fun (p, order) ->
      if List.exists (Proc.equal p) dests then
        Alcotest.(check (list string))
          (Printf.sprintf "submission order at %d" p)
          expected order
      else
        Alcotest.(check (list string))
          (Printf.sprintf "nothing at %d" p)
          [] order)
    (Skeen.orders procs run)

let test_partition_safety () =
  (* Cut {0,1} from {2,3} mid-run and keep submitting on both sides:
     Skeen has no retransmission, so completeness is forfeit, but every
     safety clause of the group-order oracle must hold. *)
  List.iter
    (fun seed ->
      let failures =
        List.map
          (fun e -> (20.0, e))
          (Fstatus.partition_events ~parts:[ [ 0; 1 ]; [ 2; 3 ] ])
      in
      let workload =
        full_workload ~senders:procs ~from_time:5.0 ~spacing:7.0 ~count:6
      in
      let run =
        Skeen.run_on ~backend:(sim ~delta) config ~workload ~failures ~until:200.0 ~seed
      in
      check_ok "group order under partition"
        (Skeen.check_group_order config ~workload run.trace);
      check_invariants run)
    [ 21; 22; 23 ]

let test_delivery_latency () =
  (* A lone full-group message commits in three hops: propose, proposal,
     commit. Every delivery lands within 3δ of the submission — the
     structural latency edge over the token ring (d = 2π + nδ). *)
  let workload = [ (10.0, 1, Skeen.full_group "lone") ] in
  let run = Skeen.run_on ~backend:(sim ~delta) config ~workload ~failures:[] ~until:50.0 ~seed:3 in
  check_ok "complete" (Skeen.check_complete config ~workload run.trace);
  List.iter
    (fun (t, a) ->
      match a with
      | To_action.Brcv _ ->
          if t > 10.0 +. (3.0 *. delta) +. 1e-9 then
            Alcotest.failf "delivery at %.3f, later than 3 hops" t
      | _ -> ())
    (Timed.actions run.Skeen.trace)

let test_burst_scaling () =
  (* A preloaded full-group burst leaves P proposals pending at every
     node. The ordered delivery queue costs O(log P) per packet; a scan
     of the whole pending set per delivery would make the burst
     quadratic.
     Pinned as a ratio of wall time per delivery between a burst ten
     times larger and a small one, so the pin holds on any host speed:
     linear scaling reads near 1x, the quadratic scan near 10x. *)
  let procs = Proc.all ~n:3 in
  let config = Skeen.make_config ~procs in
  let per_delivery count =
    let workload =
      List.concat_map
        (fun p ->
          List.init count (fun k ->
              (0.0, p, Skeen.full_group (Printf.sprintf "v%d.%d" p k))))
        procs
    in
    let expected = Skeen.expected_deliveries config workload in
    let outputs = List.length workload + expected in
    let now = Unix.gettimeofday [@gcs.lint.allow "D2"] in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = now () in
      let run =
        Skeen.run_on ~backend:(sim ~delta:0.001)
          ~stop:(fun ~now:_ ~outputs:o -> o >= outputs)
          config ~workload ~failures:[] ~until:60.0 ~seed:1
      in
      best := Float.min !best (now () -. t0);
      Alcotest.(check int)
        (Printf.sprintf "%d per origin: every delivery" count)
        expected (Skeen.deliveries run)
    done;
    !best /. float_of_int expected
  in
  let small = per_delivery 300 and large = per_delivery 3_000 in
  if large > 4.0 *. small then
    Alcotest.failf
      "per-delivery time grew %.1fx (%.1f us -> %.1f us) for a 10x burst"
      (large /. small) (small *. 1e6) (large *. 1e6)

let test_sim_vs_bus_anchored () =
  (* Single origin, full group, FIFO links: both backends must produce
     the identical per-node order — the submission order. *)
  let workload =
    List.init 8 (fun k ->
        (0.02 *. float_of_int k, 0, Skeen.full_group (Printf.sprintf "a%d" k)))
  in
  let expected_outputs = 8 + Skeen.expected_deliveries config workload in
  let sim = Skeen.run_on ~backend:(sim ~delta:0.1) config ~workload ~failures:[] ~until:60.0 ~seed:9 in
  let bus =
    Skeen.run_on
      ~backend:(Gcs_transport.Bus.backend ())
      ~stop:(fun ~now:_ ~outputs -> outputs >= expected_outputs)
      config ~workload ~failures:[] ~until:30.0 ~seed:9
  in
  check_ok "sim complete" (Skeen.check_complete config ~workload sim.trace);
  check_ok "bus complete" (Skeen.check_complete config ~workload bus.trace);
  check_ok "bus group order" (Skeen.check_group_order config ~workload bus.trace);
  List.iter2
    (fun (p, sim_order) (p', bus_order) ->
      Alcotest.(check int) "same proc" p p';
      Alcotest.(check (list string))
        (Printf.sprintf "same order at %d" p)
        sim_order bus_order)
    (Skeen.orders procs sim) (Skeen.orders procs bus)

let test_bus_multi_group () =
  (* Multi-origin, mixed subsets on the real bus: orders may differ from
     the simulator's, but the Skeen guarantees must hold per run. *)
  let subset i = match i mod 3 with 0 -> [ 0; 1; 2 ] | 1 -> [ 1; 3 ] | _ -> [] in
  let workload =
    List.init 12 (fun i ->
        let p = List.nth procs (i mod 4) in
        ( 0.01 *. float_of_int i,
          p,
          { Skeen.value = Printf.sprintf "b%d.%d" p i; dests = subset i } ))
  in
  let expected_outputs = 12 + Skeen.expected_deliveries config workload in
  let run =
    Skeen.run_on
      ~backend:(Gcs_transport.Bus.backend ())
      ~stop:(fun ~now:_ ~outputs -> outputs >= expected_outputs)
      config ~workload ~failures:[] ~until:30.0 ~seed:17
  in
  check_ok "bus group order" (Skeen.check_group_order config ~workload run.trace);
  check_ok "bus complete" (Skeen.check_complete config ~workload run.trace);
  check_invariants run

(* ------------------------------ codec -------------------------------- *)

open QCheck

let gen_proc = Gen.int_range 0 9
let gen_mid =
  Gen.map2 (fun sender seq -> { Skeen.sender; seq }) gen_proc (Gen.int_range 0 999)

let gen_ts =
  Gen.map2 (fun clock origin -> { Skeen.clock; origin }) (Gen.int_range 0 9999) gen_proc

(* Full byte range: the framing characters must be as likely as any. *)
let gen_value = Gen.(string_size ~gen:char (int_range 0 30))

let gen_packet =
  Gen.oneof
    [
      Gen.map3
        (fun mid value dests -> Skeen.Propose { mid; value; dests })
        gen_mid gen_value
        Gen.(list_size (int_range 0 5) gen_proc);
      Gen.map2 (fun mid ts -> Skeen.Proposal { mid; ts }) gen_mid gen_ts;
      Gen.map2 (fun mid ts -> Skeen.Commit { mid; ts }) gen_mid gen_ts;
    ]

let equal_packet a b =
  match (a, b) with
  | Skeen.Propose a, Skeen.Propose b ->
      Skeen.mid_compare a.mid b.mid = 0
      && String.equal a.value b.value
      && List.equal Proc.equal a.dests b.dests
  | Skeen.Proposal a, Skeen.Proposal b ->
      Skeen.mid_compare a.mid b.mid = 0 && Skeen.ts_compare a.ts b.ts = 0
  | Skeen.Commit a, Skeen.Commit b ->
      Skeen.mid_compare a.mid b.mid = 0 && Skeen.ts_compare a.ts b.ts = 0
  | _ -> false

let qcheck_roundtrip =
  Test.make ~name:"skeen packet codec roundtrips" ~count:500
    (make ~print:(Format.asprintf "%a" Skeen.pp_packet) gen_packet)
    (fun p ->
      match Skeen.decode_packet (Skeen.encode_packet p) with
      | Ok p' -> equal_packet p p'
      | Error e -> Test.fail_reportf "decode failed: %s" e)

let qcheck_decode_total =
  Test.make ~name:"skeen packet decode is total" ~count:1000
    (make Gen.(string_size ~gen:char (int_range 0 60)))
    (fun s ->
      match Skeen.decode_packet s with Ok _ | Error _ -> true)

let qcheck_truncation_total =
  Test.make ~name:"skeen packet decode is total on every truncation" ~count:300
    (make ~print:(Format.asprintf "%a" Skeen.pp_packet) gen_packet)
    (fun p ->
      let s = Skeen.encode_packet p in
      List.for_all
        (fun cut ->
          match Skeen.decode_packet (String.sub s 0 cut) with
          | Ok _ -> false
          | Error _ -> true)
        (List.init (String.length s) Fun.id))

(* ------------------------- delivery queue ---------------------------- *)

(* The delivery rule as first written, kept as the reference for the
   node's ordered queue: per delivery, one fold over the whole pending
   set for the lowest uncommitted proposal and one for the lowest
   committed final (ties to the lowest mid); deliver the latter if it is
   strictly below the former. *)
module Mid_map = Map.Make (struct
  type t = Skeen.mid

  let compare = Skeen.mid_compare
end)

type ref_entry = { r_value : Value.t; r_proposed : Skeen.ts; r_final : Skeen.ts option }
type ref_node = { r_clock : int; r_pending : ref_entry Mid_map.t; r_delivered : int }

let ref_initial = { r_clock = 0; r_pending = Mid_map.empty; r_delivered = 0 }

let rec ref_deliver node =
  let min_uncommitted =
    Mid_map.fold
      (fun _ e acc ->
        match (e.r_final, acc) with
        | Some _, _ -> acc
        | None, None -> Some e.r_proposed
        | None, Some b ->
            if Skeen.ts_compare e.r_proposed b < 0 then Some e.r_proposed else acc)
      node.r_pending None
  in
  let best_committed =
    Mid_map.fold
      (fun m e acc ->
        match e.r_final with
        | None -> acc
        | Some f -> (
            match acc with
            | Some (_, _, bf) when Skeen.ts_compare bf f <= 0 -> acc
            | _ -> Some (m, e, f)))
      node.r_pending None
  in
  match best_committed with
  | Some (m, e, f)
    when (match min_uncommitted with
         | None -> true
         | Some bound -> Skeen.ts_compare f bound < 0) ->
      let node, rest =
        ref_deliver
          {
            node with
            r_pending = Mid_map.remove m node.r_pending;
            r_delivered = node.r_delivered + 1;
          }
      in
      (node, (m.Skeen.sender, e.r_value) :: rest)
  | _ -> (node, [])

let ref_packet me node = function
  | Skeen.Propose { mid; value; dests = _ } ->
      if Mid_map.mem mid node.r_pending then (node, [])
      else
        let clock = node.r_clock + 1 in
        let entry =
          { r_value = value; r_proposed = { Skeen.clock; origin = me }; r_final = None }
        in
        ({ node with r_clock = clock; r_pending = Mid_map.add mid entry node.r_pending }, [])
  | Skeen.Commit { mid; ts } -> (
      match Mid_map.find_opt mid node.r_pending with
      | Some ({ r_final = None; _ } as e) ->
          ref_deliver
            {
              node with
              r_clock = max node.r_clock ts.Skeen.clock;
              r_pending = Mid_map.add mid { e with r_final = Some ts } node.r_pending;
            }
      | Some { r_final = Some _; _ } | None -> (node, []))
  | Skeen.Proposal _ -> (node, [])

let brcvs events =
  List.filter_map
    (function
      | Gcs_sim.Engine.Output (To_action.Brcv { src; value; _ }) -> Some (src, value)
      | _ -> None)
    events

(* Up to 12 messages from three senders to node 0. Each gets one or two
   copies of its Propose and one or two Commits, all shuffled together,
   so commits arrive in any order, duplicated, or before their Propose.
   Finals are drawn from clocks about the size of the pending set and
   from every origin, so they often land below node 0's own proposal or
   on another pending proposal — the tie the queue's order must break. *)
let gen_delivery_packets =
  let open Gen in
  int_range 1 12 >>= fun k ->
  let gen_final =
    map2 (fun clock origin -> { Skeen.clock; origin }) (int_range 0 (k + 2)) (int_range 0 3)
  in
  flatten_l
    (List.init k (fun i ->
         let mid = { Skeen.sender = 1 + (i mod 3); seq = i / 3 } in
         let propose =
           Skeen.Propose
             { mid; value = Printf.sprintf "v%d.%d" mid.sender mid.seq; dests = [] }
         in
         map2
           (fun copies finals ->
             List.init copies (fun _ -> propose)
             @ List.map (fun ts -> Skeen.Commit { mid; ts }) finals)
           (int_range 1 2)
           (list_size (int_range 1 2) gen_final)))
  >>= fun per_message -> shuffle_l (List.concat per_message)

let pp_packets =
  Format.asprintf "%a"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Skeen.pp_packet)

let qcheck_queue_matches_scan =
  let me = 0 in
  let h = Skeen.handlers config in
  let src = function
    | Skeen.Propose { mid; _ } | Skeen.Proposal { mid; _ } | Skeen.Commit { mid; _ } ->
        mid.Skeen.sender
  in
  let show = List.map (fun (s, v) -> Printf.sprintf "%d:%s" s v) in
  Test.make ~name:"delivery queue delivers exactly as the pending-set scan"
    ~count:1000
    (make ~print:pp_packets ~shrink:Shrink.list gen_delivery_packets)
    (fun packets ->
      let node, reference =
        List.fold_left
          (fun (node, reference) packet ->
            let node, events =
              h.Gcs_sim.Engine.on_packet me ~now:0.0 ~src:(src packet) packet node
            in
            let reference, expected = ref_packet me reference packet in
            if brcvs events <> expected then
              Test.fail_reportf "after %a: queue delivered [%s], scan [%s]"
                Skeen.pp_packet packet
                (String.concat " " (show (brcvs events)))
                (String.concat " " (show expected));
            (node, reference))
          (Skeen.initial me, ref_initial)
          packets
      in
      if
        Skeen.node_clock node <> reference.r_clock
        || Skeen.node_delivered node <> reference.r_delivered
        || Skeen.node_pending node <> Mid_map.cardinal reference.r_pending
      then
        Test.fail_reportf
          "final state: clock %d/%d, delivered %d/%d, pending %d/%d (queue/scan)"
          (Skeen.node_clock node) reference.r_clock (Skeen.node_delivered node)
          reference.r_delivered (Skeen.node_pending node)
          (Mid_map.cardinal reference.r_pending);
      true)

let () =
  Alcotest.run "skeen"
    [
      ( "protocol",
        [
          Alcotest.test_case "steady state full group" `Quick test_steady_state;
          Alcotest.test_case "multi-group addressing" `Quick test_multi_group;
          Alcotest.test_case "sender fifo per dest set" `Quick test_sender_fifo;
          Alcotest.test_case "partition keeps safety" `Quick test_partition_safety;
          Alcotest.test_case "3-hop delivery latency" `Quick test_delivery_latency;
          Alcotest.test_case "burst cost per delivery stays flat" `Quick
            test_burst_scaling;
        ] );
      ( "transport",
        [
          Alcotest.test_case "sim vs bus, anchored order" `Quick
            test_sim_vs_bus_anchored;
          Alcotest.test_case "bus multi-group oracle" `Quick test_bus_multi_group;
        ] );
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_roundtrip; qcheck_decode_total; qcheck_truncation_total ] );
      ("queue", [ QCheck_alcotest.to_alcotest qcheck_queue_matches_scan ]);
    ]
