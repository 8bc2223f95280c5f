package main

// layerMetrics lists every per-layer metric with its unit. A traced run of
// any workload prints all of them; a layer a workload bypasses reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"wall_mpps", "Mpkt/s"},
	{"stream_p50_us", "us"},
	{"packet.parse_ns", "ns"},
	{"p4.exec_ns", "ns"},
	{"p4.deparse_ns", "ns"},
	{"p4.dispatch_ns", "ns"},
	{"p4.digest_sink_ns", "ns"},
	{"p4.handoff_us", "us"},
	{"p4.shard_skew", "ratio"},
	{"p4.digests_per_pkt", "ratio"},
	{"p4.recirc_frac", "ratio"},
	{"p4.allocs_per_pkt", "count"},
	{"p4.alloc_bytes_per_pkt", "B"},
	{"telemetry.observer_ns", "ns"},
	{"telemetry.scrape_us", "us"},
	{"telemetry.scrape_bytes", "B"},
	{"ingest.pcap_read_ns", "ns"},
	{"ingest.decode_ns", "ns"},
	{"ingest.frames_per_batch", "count"},
	{"ingest.shed_frac", "ratio"},
	{"ingest.ctrl_wait_us", "us"},
	{"ingest.ctrl_busy_us", "us"},
	{"ring.handoff_ns", "ns"},
	{"stat4p4.build_ms", "ms"},
	{"stat4p4.populate_ms", "ms"},
	{"stat4p4.rebind_us", "us"},
	{"stat4p4.merge_us", "us"},
	{"netem.event_ns", "ns"},
	{"netem.events_per_pkt", "ratio"},
	{"traffic.gen_ns", "ns"},
	{"detect.score_ms", "ms"},
	{"stream_p99_us", "us"},
	{"ctrl_p50_us", "us"},
	{"ctrl_p99_us", "us"},
	{"harness.gen_lag_p99_us", "us"},
	{"harness.trace_overhead", "ratio"},
	{"harness.unattributed_frac", "ratio"},
}

// setLayerDefaults sets every per-layer metric to 0 so a traced run always
// prints the full set; the workload then overwrites what it measures.
func setLayerDefaults(o *outcome) {
	for _, m := range layerMetrics {
		o.set(m.name, 0, m.unit)
	}
}
