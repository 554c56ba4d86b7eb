(* Every metric the benchmark reports, with its unit. BENCHMARK.json at the
   repository root lists the same names; the smoke test fails if the two
   drift apart. *)

(* Printed by an untraced run ([--trace 0]), on every workload. *)
let end_to_end =
  [
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

(* Printed by a traced run ([--trace 1]), on every workload; a layer the
   workload never enters reads 0. *)
let per_layer =
  [
    ("to_service.staging_p50_ms", "ms");
    ("to_service.staging_p99_ms", "ms");
    ("to_service.batch_mean", "values");
    ("to_service.batch_max", "values");
    ("to_service.input_busy_s", "s");
    ("to_service.flush_busy_s", "s");
    ("to_service.flush_calls", "count");
    ("vs_node.ring_p50_ms", "ms");
    ("vs_node.ring_p99_ms", "ms");
    ("vs_node.safe_p50_ms", "ms");
    ("vs_node.safe_p99_ms", "ms");
    ("vs_node.packet_busy_s", "s");
    ("vs_node.timer_busy_s", "s");
    ("vs_node.tokens_launched", "count");
    ("vs_node.tokens_per_brcv", "tokens/brcv");
    ("vs_node.token_entries_max", "entries");
    ("vs_node.views_installed", "count");
    ("vs_node.outage_s", "s");
    ("vstoto.confirm_p50_ms", "ms");
    ("vstoto.confirm_p99_ms", "ms");
    ("vstoto.summaries", "count");
    ("vstoto.summary_bytes", "B");
    ("vstoto.catchup_s", "s");
    ("wire.enc_s", "s");
    ("wire.dec_s", "s");
    ("wire.bytes", "B");
    ("wire.bytes_per_brcv", "B/brcv");
    ("wire.enc_mb_per_s", "MB/s");
    ("bus.transit_p50_us", "us");
    ("bus.transit_p99_us", "us");
    ("bus.timer_late_p50_ms", "ms");
    ("bus.timer_late_p99_ms", "ms");
    ("bus.packets_per_brcv", "packets/brcv");
    ("bus.node_busy_max", "fraction");
    ("bus.idle_frac", "fraction");
    ("bus.submit_lag_p99_ms", "ms");
    ("engine.run_ms", "ms");
    ("engine.events_per_s", "1/s");
    ("nemesis.compile_ms", "ms");
    ("checker.to_ms", "ms");
    ("checker.vs_ms", "ms");
    ("checker.bound_ms", "ms");
    ("checker.share", "fraction");
    ("skeen.packet_busy_s", "s");
    ("skeen.handler_p99_us", "us");
    ("sequencer.packet_busy_s", "s");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> (
      match List.assoc_opt name per_layer with Some u -> u | None -> "")
