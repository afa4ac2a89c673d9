package main

// layerMetrics lists every per-layer metric with its unit, named after the
// repository's packages. A traced run of any workload reports all of them;
// a layer the workload does not reach reads 0, which is the "flat on"
// prediction of NOTES.md made visible.
var layerMetrics = []struct{ name, unit string }{
	{"profile.fits", "count"},
	{"profile.fit_ms", "ms"},
	{"scheme.builds", "count"},
	{"scheme.build_ms", "ms"},
	{"pipeline.validates", "count"},
	{"pipeline.validate_ms", "ms"},
	{"pipeline.instrs", "count"},
	{"graph.calls", "count"},
	{"graph.rounds", "count"},
	{"graph.self_ms", "ms"},
	{"graph.round_self_ms", "ms"},
	{"sim.runs", "count"},
	{"sim.self_ms", "ms"},
	{"sim.full_us", "us"},
	{"sim.delta_us", "us"},
	{"sim.bubble_max", "ratio"},
	{"tuner.points", "count"},
	{"tuner.explored", "count"},
	{"tuner.bound_pruned", "count"},
	{"tuner.mem_pruned", "count"},
	{"tuner.infeasible", "count"},
	{"tuner.explore_ratio", "ratio"},
	{"tuner.build_memo_hit_ratio", "ratio"},
	{"tuner.graph_memo_hit_ratio", "ratio"},
	{"tuner.search_self_ms", "ms"},
	{"tuner.bound_self_ms", "ms"},
	{"tuner.other_self_ms", "ms"},
	{"tuner.search_unattributed_ms", "ms"},
	{"tuner.unattributed_share", "ratio"},
	{"tuner.fleet_waves", "count"},
	{"tuner.fleet_shards", "count"},
	{"tuner.fleet_fallbacks", "count"},
	{"tuner.fleet_forced", "count"},
	{"place.calls", "count"},
	{"place.coopt_ms", "ms"},
	{"serve.requests", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shared", "count"},
	{"serve.rejected", "count"},
	{"serve.timeouts", "count"},
	{"serve.tuner_runs", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.peer_routed", "count"},
	{"serve.peer_errors", "count"},
	{"serve.shard_points", "count"},
	{"serve.hot_share", "ratio"},
	{"serve.fresh_share", "ratio"},
	{"serve.hetero_share", "ratio"},
	{"serve.owner_share", "ratio"},
	{"telemetry.overhead_ms", "ms"},
	{"telemetry.spans", "count"},
	{"cluster.instrs_per_iter", "count"},
	{"cluster.host_ms_per_iter", "ms"},
	{"cluster.watchdog_resets", "count"},
	{"obs.events", "count"},
	{"obs.compute_ms", "ms"},
	{"obs.drift_ms", "ms"},
	{"obs.bubble_max", "ratio"},
	{"train.iter_ms", "ms"},
	{"train.fw_ms", "ms"},
	{"train.bw_ms", "ms"},
	{"train.rc_ms", "ms"},
	{"train.wait_ms", "ms"},
	{"train.recomputes", "count"},
	{"train.loss", "nats"},
	{"train.peak_act_ratio", "ratio"},
	{"train.single_iter_ms", "ms"},
}

// layers holds a traced run's per-layer metrics.
type layers map[string]metric

// set records a per-layer metric in its declared unit.
func (l layers) set(name string, v float64) {
	for _, lm := range layerMetrics {
		if lm.name == name {
			l[name] = metric{v, lm.unit}
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// complete adds every declared metric the run did not measure, at 0.
func (l layers) complete() {
	for _, lm := range layerMetrics {
		if _, ok := l[lm.name]; !ok {
			l[lm.name] = metric{0, lm.unit}
		}
	}
}
