package main

// metricDef is one printed metric and its unit. BENCHMARK.json lists
// exactly these, in these units (perfbench_test.go checks it); manifest.json
// records which end-to-end metric each per-layer metric should move.
type metricDef struct{ name, unit string }

// endToEnd is printed by every workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"max_rate_rps", "req/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed by every workload with --trace 1.
var perLayer = []metricDef{
	{"mac.transact_us_deep", "us"},
	{"mac.transact_us_shallow", "us"},
	{"mac.alloc_b_per_exchange", "B"},
	{"link.exchanges_per_op", "count"},
	{"link.step_us", "us"},
	{"channel.sample_ns", "ns"},
	{"phy.per_ns", "ns"},
	{"rate.minstrel_ns", "ns"},
	{"transport.transfer_ms", "ms"},
	{"transport.share_of_op", "fraction"},
	{"fleet.self_ms", "ms"},
	{"autopilot.step_ns", "ns"},
	{"autopilot.busy_share", "fraction"},
	{"scenario.resolve_ms", "ms"},
	{"scenario.link_ms", "ms"},
	{"scenario.subticks_stepped", "count"},
	{"scenario.elided_frac", "fraction"},
	{"sim.events_per_op", "count"},
	{"sim.peak_pending", "count"},
	{"sim.dispatch_ns", "ns"},
	{"spatial.upsert_ns", "ns"},
	{"spatial.nearest_ns", "ns"},
	{"trajopt.plan_ms", "ms"},
	{"scenario.run_ms.fixed", "ms"},
	{"scenario.run_ms.greedy", "ms"},
	{"scenario.run_ms.joint", "ms"},
	{"core.optimize_us", "us"},
	{"policy.build_ms", "ms"},
	{"policy.builds", "count"},
	{"policy.hits", "count"},
	{"policy.decide_us.cache", "us"},
	{"policy.decide_us.table", "us"},
	{"policy.decide_us.exact", "us"},
	{"policy.cache_hit_ratio", "fraction"},
	{"policy.exact_fallbacks", "count"},
	{"policy.degraded", "count"},
	{"nlserver.handler_us", "us"},
	{"nlserver.rtt_minus_handler_us", "us"},
	{"overload.admitted", "count"},
	{"overload.shed", "count"},
	{"overload.breaker_denied", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace.op_wall_ms", "ms"},
	{"trace.layer_sum_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}
