(* Tests of gcsbench: its statistics, the trace walks behind the stage and
   partition metrics, the stamping codec, its own sources under the repo
   lint, and a smoke run of every workload against BENCHMARK.json. *)

open Gcs_core
open Gcs_impl
open Gcs_e2e
module J = Gcs_stdx.Jsonx

let exact = Alcotest.float 0.0

(* ---------------------------------------------------------------- *)
(* Quantiles *)

let sorted_upto n = Array.init n (fun i -> float_of_int (i + 1))

let nearest_rank () =
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Stats.rank ~pct:99 1000);
  Alcotest.(check int) "p50 of 5 is rank 3" 3 (Stats.rank ~pct:50 5);
  Alcotest.(check int) "p99 of 1 is rank 1" 1 (Stats.rank ~pct:99 1);
  Alcotest.check exact "p50 of 1..100" 50.0 (Stats.quantile ~pct:50 (sorted_upto 100));
  Alcotest.check exact "p99 of 1..100" 99.0 (Stats.quantile ~pct:99 (sorted_upto 100));
  Alcotest.check exact "p99 of 1..1000" 990.0 (Stats.quantile ~pct:99 (sorted_upto 1000));
  Alcotest.check exact "no samples read 0" 0.0 (Stats.quantile ~pct:50 [||]);
  Alcotest.check exact "median of an even count" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let ten_beyond () =
  Alcotest.(check bool) "p99 needs 1000" true (Stats.supported ~pct:99 1000);
  Alcotest.(check bool) "999 leave 9 beyond p99" false (Stats.supported ~pct:99 999);
  Alcotest.(check bool) "p50 needs 20" true (Stats.supported ~pct:50 20);
  Alcotest.(check bool) "19 leave 9 beyond p50" false (Stats.supported ~pct:50 19);
  Alcotest.(check bool) "nothing supports nothing" false (Stats.supported ~pct:50 0)

(* ---------------------------------------------------------------- *)
(* Lifecycle: a two-value batch delivered at two members, one of which
   never sees the safe notification. Times are dyadic so sums are exact. *)

let batch_trace () =
  let label seqno = Label.make ~id:(View_id.make ~num:1 ~origin:0) ~seqno ~origin:0 in
  let msg = Msg.Batch [ (label 1, "0:aa"); (label 2, "1:bb") ] in
  let client a = To_service.Client a and vs a = To_service.Vs_layer a in
  List.map
    (fun (t, x) -> Timed.action t x)
    [
      (0.25, client (To_action.Bcast (0, "0:aa")));
      (0.375, client (To_action.Bcast (0, "1:bb")));
      (0.5, vs (Vs_action.Gpsnd { sender = 0; msg }));
      (0.75, vs (Vs_action.Gprcv { src = 0; dst = 0; msg }));
      (0.875, vs (Vs_action.Gprcv { src = 0; dst = 1; msg }));
      (1.0, vs (Vs_action.Safe { src = 0; dst = 0; msg }));
      (1.125, client (To_action.Brcv { src = 0; dst = 0; value = "0:aa" }));
      (1.125, client (To_action.Brcv { src = 0; dst = 0; value = "1:bb" }));
      (1.5, client (To_action.Brcv { src = 0; dst = 1; value = "0:aa" }));
      (1.625, client (To_action.Brcv { src = 0; dst = 1; value = "1:bb" }));
    ]

let stages_sum () =
  let due = [| 0.0; 0.125 |] in
  let staged = Lifecycle.lifecycle ~due ~members:2 (batch_trace ()) in
  Alcotest.(check int) "one record per delivery" 4 (List.length staged);
  List.iter
    (fun (st : Lifecycle.staged) ->
      let d = Lifecycle.stages st in
      let sum = d.(0) +. d.(1) +. d.(2) +. d.(3) +. d.(4) in
      Alcotest.check exact
        (Printf.sprintf "value %d at %d: stages sum to brcv - due" st.value st.member)
        (st.marks.(5) -. due.(st.value))
        sum)
    staged;
  let at value member =
    List.find
      (fun (st : Lifecycle.staged) -> st.value = value && st.member = member)
      staged
  in
  let d = Lifecycle.stages (at 1 0) in
  Alcotest.check exact "lag" 0.25 d.(0);
  Alcotest.check exact "staging" 0.125 d.(1);
  Alcotest.check exact "ring" 0.25 d.(2);
  Alcotest.check exact "safe" 0.25 d.(3);
  Alcotest.check exact "confirm" 0.125 d.(4);
  let d = Lifecycle.stages (at 0 1) in
  Alcotest.(check bool) "no safe at member 1" true (Float.is_nan (at 0 1).marks.(4));
  Alcotest.check exact "missing safe reads 0" 0.0 d.(3);
  Alcotest.check exact "and folds into confirm" 0.625 d.(4)

(* ---------------------------------------------------------------- *)
(* Outage and catch-up on a synthetic partition *)

let partition_client () =
  (* Member 0 is cut off at 1.0 and healed at 2.0. Members 1 and 2 deliver
     every 0.125 s except for gaps [1.0, 1.75] and [1.125, 1.5]; member 0
     delivers its backlog at 2.5. A gap at member 1 that ends after the
     window closes (3.0) belongs to the next cycle. *)
  let ticks lo hi = List.init (int_of_float ((hi -. lo) /. 0.125) + 1) (fun k -> lo +. (0.125 *. float_of_int k)) in
  let at dst times = List.map (fun t -> (t, dst)) times in
  let deliveries =
    at 1 (ticks 0.0 1.0 @ ticks 1.75 2.75 @ [ 4.0 ])
    @ at 2 (ticks 0.0 1.125 @ ticks 1.5 2.75)
    @ at 0 (ticks 0.0 0.875 @ [ 2.5 ])
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let values = List.length deliveries in
  let due = Array.make values 0.0 in
  let actions =
    List.mapi
      (fun id (t, dst) ->
        (t, To_action.Brcv { src = 1; dst; value = Printf.sprintf "%d:x" id }))
      deliveries
  in
  (due, Lifecycle.client ~values actions)

let outage_catchup () =
  let due, c = partition_client () in
  let cycle = { Lifecycle.isolated = 0; cut = 1.0; heal = 2.0; until = 3.0 } in
  Alcotest.check exact "longest majority gap in the window" 0.75
    (Lifecycle.outage ~procs:[ 0; 1; 2 ] cycle c);
  Alcotest.check exact "heal to the isolated member's last pre-heal value" 0.5
    (Lifecycle.catchup ~due cycle c)

(* ---------------------------------------------------------------- *)
(* The stamping codec *)

let packets () =
  let vid = View_id.make ~num:3 ~origin:1 in
  let label seqno = Label.make ~id:vid ~seqno ~origin:1 in
  let summary =
    Summary.make
      ~con:(Label.Map.singleton (label 1) "7:a|b%c")
      ~ord:[ label 1 ] ~next:2 ~high:(Some vid)
  in
  [
    Wire.Newgroup { viewid = vid };
    Wire.Probe { viewid_num = 4 };
    Wire.ViewMsg { view = View.make vid [ 0; 1; 2 ] };
    Wire.Token
      {
        (Wire.fresh_token vid) with
        Wire.entries =
          [
            { Wire.idx = 1; src = 1; msg = Msg.App (label 1, "1:x") };
            { idx = 2; src = 2; msg = Msg.Batch [ (label 2, "2:y"); (label 3, "3:z") ] };
            { idx = 3; src = 0; msg = Msg.Summary summary };
          ];
        next_idx = 4;
      };
  ]

let stamp_roundtrip () =
  let probe = Probe.create ~keep_spans:false () in
  let inner = Wire.msg_packet_codec in
  let codec = Probe.stamp_codec probe inner in
  List.iter
    (fun p ->
      let frame = codec.Gcs_transport.Iface.enc p in
      let body = inner.Gcs_transport.Iface.enc p in
      Alcotest.(check int) "stamp adds 8 bytes" (String.length body + 8) (String.length frame);
      match codec.Gcs_transport.Iface.dec frame with
      | Ok q ->
          Alcotest.(check string) "decodes to the same packet" body
            (inner.Gcs_transport.Iface.enc q)
      | Error e -> Alcotest.fail e)
    (packets ());
  (match codec.Gcs_transport.Iface.dec "short" with
  | Ok _ -> Alcotest.fail "a frame without a stamp decoded"
  | Error _ -> ());
  let s = Probe.summary probe in
  Alcotest.(check int) "one transit sample per decode" 4 (Array.length s.Probe.transit);
  Alcotest.(check bool) "bytes counted unstamped" true
    (s.Probe.bytes
    = List.fold_left
        (fun acc p -> acc + String.length (inner.Gcs_transport.Iface.enc p))
        0 (packets ()))

(* ---------------------------------------------------------------- *)
(* Self-lint: the benchmark's sources pass the repo lint with no
   suppressions at all. *)

let read file = In_channel.with_open_bin file In_channel.input_all

let sources dir prefix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort String.compare
  |> List.map (fun f -> (prefix ^ f, Filename.concat dir f))

let self_lint () =
  let files = sources ".." "bench/e2e/" @ sources "." "bench/e2e/test/" in
  Alcotest.(check bool) "found the sources" true (List.length files >= 6);
  List.iter
    (fun (path, file) ->
      match Gcs_lint.Lint.lint_source ~path (read file) with
      | [] -> ()
      | findings ->
          Alcotest.failf "%s:\n%s" path
            (String.concat "\n" (List.map Gcs_lint.Finding.to_string findings)))
    files

(* ---------------------------------------------------------------- *)
(* Smoke: every workload, shortened and shrunk, through the one command;
   the metrics printed must be exactly those BENCHMARK.json lists, with its
   units. *)

let benchmark = lazy (match J.of_string (read "../../../BENCHMARK.json") with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let listed key =
  match Option.bind (J.member key (Lazy.force benchmark)) J.to_list with
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
  | Some xs ->
      List.map
        (fun x ->
          let field k =
            match Option.bind (J.member k x) J.to_string with
            | Some s -> s
            | None -> ""
          in
          (field "name", field "unit"))
        xs

let catalog_matches () =
  Alcotest.(check (list (pair string string))) "end_to_end" Catalog.end_to_end
    (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Catalog.per_layer
    (listed "per_layer");
  Alcotest.(check (list string)) "workloads"
    (List.map (fun (w : Workloads.workload) -> w.name) Workloads.all)
    (List.map fst (listed "workloads"))

let smoke trace () =
  let out = Printf.sprintf "smoke-%b.json" trace in
  let cmd =
    Printf.sprintf
      "../gcsbench.exe --seed 3 --seconds 0.3 --scale 0.02 --trace %d --json %s > /dev/null"
      (if trace then 1 else 0) (Filename.quote out)
  in
  Alcotest.(check int) "exit status" 0 (Sys.command cmd);
  let result =
    match J.of_string (String.trim (read out)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "result: %s" e
  in
  Sys.remove out;
  let metrics = listed (if trace then "per_layer" else "end_to_end") in
  List.iter
    (fun (workload, _) ->
      let r =
        match Option.bind (J.member "workloads" result) (J.member workload) with
        | Some r -> r
        | None -> Alcotest.failf "%s: no result" workload
      in
      Alcotest.(check (option bool)) (workload ^ " correct") (Some true)
        (match J.member "correct" r with Some (J.Bool b) -> Some b | _ -> None);
      Alcotest.(check (option (float 0.0))) (workload ^ " failed") (Some 0.0)
        (Option.bind (J.member "failed" r) J.to_float);
      List.iter
        (fun (name, unit_name) ->
          match Option.bind (J.member "metrics" r) (J.member name) with
          | None -> Alcotest.failf "%s: metric %s missing" workload name
          | Some m ->
              Alcotest.(check (option string)) (workload ^ " " ^ name ^ " unit")
                (Some unit_name)
                (Option.bind (J.member "unit" m) J.to_string);
              if Option.is_none (Option.bind (J.member "value" m) J.to_float) then
                Alcotest.failf "%s: %s has no value" workload name)
        metrics)
    (listed "workloads")

let () =
  Alcotest.run "gcsbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank quantiles" `Quick nearest_rank;
          Alcotest.test_case "ten samples beyond a percentile" `Quick ten_beyond;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "batch stages sum to brcv - due" `Quick stages_sum;
          Alcotest.test_case "outage and catch-up" `Quick outage_catchup;
        ] );
      ("probe", [ Alcotest.test_case "stamp codec round-trips" `Quick stamp_roundtrip ]);
      ("lint", [ Alcotest.test_case "sources lint clean" `Quick self_lint ]);
      ( "smoke",
        [
          Alcotest.test_case "code and BENCHMARK.json list the same" `Quick catalog_matches;
          Alcotest.test_case "untraced run prints every end-to-end metric" `Slow
            (smoke false);
          Alcotest.test_case "traced run prints every per-layer metric" `Slow
            (smoke true);
        ] );
    ]
