package main

// metricDef is one reported metric: its name and unit. README.md gives
// each one's layer and the end-to-end metric and workload it moves.
type metricDef struct{ name, unit string }

// endToEnd is what a --trace 0 run reports: medians over its timed
// studies.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"collect_s", "s"},
	{"analyze_s", "s"},
	{"study_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// coreMatrix is the per-layer timings a traced run repeats at
// GOMAXPROCS=1 (reported with a ".1core" suffix).
var coreMatrix = []string{"search.total_s", "monitor.total_s", "join.collect_s", "lda.table3_s"}

// perLayer is what a --trace 1 run reports. A layer that does not run on
// a workload reports 0.
var perLayer = []metricDef{
	// Metrics that are 0 on some workload, so they cannot carry a bound.
	{"resume_s", "s"},
	{"disk_mb", "MB"},
	{"failed_frac", "frac"},

	{"simworld.new_s", "s"},
	{"setup.services_s", "s"},

	{"search.hour_ms.p50", "ms"},
	{"search.hour_ms.p95", "ms"},
	{"search.total_s", "s"},
	{"search.tweets_returned", "count"},
	{"search.rate_limit_hits", "count"},
	{"search.deferred", "count"},
	{"stream.drain_s", "s"},
	{"stream.tweets", "count"},
	{"collect.useful_frac", "frac"},

	{"monitor.sweep_ms.p50", "ms"},
	{"monitor.total_s", "s"},
	{"monitor.probes", "count"},
	{"monitor.probes_per_s", "1/s"},
	{"monitor.alive_probes", "count"},
	{"monitor.revoked_probes", "count"},
	{"monitor.errors", "count"},
	{"monitor.deferred", "count"},

	{"join.select_s", "s"},
	{"join.collect_s", "s"},
	{"join.attempted", "count"},
	{"join.joined", "count"},
	{"join.dead_invites", "count"},
	{"join.flood_waits", "count"},
	{"join.deferred", "count"},
	{"join.messages_read", "count"},
	{"join.messages_per_s", "1/s"},

	{"store.tweets", "count"},
	{"store.control", "count"},
	{"store.groups", "count"},
	{"store.observations", "count"},
	{"store.messages", "count"},
	{"store.users", "count"},
	{"store.live_heap_mb", "MB"},
	{"store.snapshot_s", "s"},

	{"spill.seg_mb", "MB"},
	{"spill.seg_files", "count"},

	{"ckpt.log_mb", "MB"},
	{"ckpt.manifest_kb", "KB"},
	{"ckpt.boundaries", "count"},
	{"resume.read_s", "s"},
	{"resume.replay_s", "s"},

	{"retry.attempts", "count"},
	{"retry.retries", "count"},
	{"retry.throttles", "count"},
	{"retry.exhausted", "count"},
	{"retry.useful_frac", "frac"},
	{"breaker.opens", "count"},

	{"report.aggregate_s", "s"},
	{"report.render_s", "s"},
	{"plot.export_s", "s"},
	{"lda.table3_s", "s"},

	{"search.alloc_mb", "MB"},
	{"stream.alloc_mb", "MB"},
	{"monitor.alloc_mb", "MB"},
	{"join.collect_alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},

	{"search.total_s.1core", "s"},
	{"monitor.total_s.1core", "s"},
	{"join.collect_s.1core", "s"},
	{"lda.table3_s.1core", "s"},

	{"trace.overhead_s", "s"},
}
