package main

import "encoding/json"

// runSeconds is how long one run measures; the driver passes it back as
// -seconds. Window sizes in fullSizes are tuned to it.
const runSeconds = 10

// manifestJSON renders BENCHMARK.json from the declarations in this package,
// so the file the driver reads cannot drift from what the code emits.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"sh", "benchmark/bench.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	return append(b, '\n')
}

// metricDef declares one metric: BENCHMARK.json lists exactly these, and a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the system sees, with the share of the
// parent's median by which each may get worse before a change counts as a
// regression. A bound is one number for all seven workloads, so the noisiest
// workload sets it: each is at least three times the widest run-to-run
// spread (IQR/median over ten seeds) measured on the seed commit — see
// README.md for the spreads. fail_frac is reported by every run as well, but
// it is 0 on a healthy commit, so the driver carries it as failed/attempted
// instead of as a bounded metric (a spread relative to a zero median is
// undefined).
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "alloc_kib_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
}

// perLayerMetrics are single-layer numbers from the traced run. They have
// no bound: they explain an end-to-end change, they do not gate one.
var perLayerMetrics = []metricDef{
	{Name: "sql.normalize_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.plan_us", Unit: "us", Better: "lower"},

	{Name: "plan.prepare_us", Unit: "us", Better: "lower"},
	{Name: "plan.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.bhj.mtuples_per_s", Unit: "Mtuples/s", Better: "higher"},
	{Name: "plan.brj.mtuples_per_s", Unit: "Mtuples/s", Better: "higher"},
	{Name: "plan.rj.mtuples_per_s", Unit: "Mtuples/s", Better: "higher"},
	{Name: "plan.rj_over_bhj", Unit: "ratio", Better: "higher"},
	{Name: "plan.brj_over_bhj", Unit: "ratio", Better: "higher"},
	{Name: "plan.part_wins", Unit: "count", Better: "higher"},

	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "core.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bytes_read_per_tuple", Unit: "B", Better: "lower"},
	{Name: "core.bytes_written_per_tuple", Unit: "B", Better: "lower"},
	{Name: "core.match_rate", Unit: "ratio", Better: "higher"},

	{Name: "exec.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.morsels_pruned_per_op", Unit: "count", Better: "higher"},
	{Name: "exec.batches_pruned_per_op", Unit: "count", Better: "higher"},
	{Name: "exec.rows_prefiltered_per_op", Unit: "count", Better: "higher"},

	{Name: "adapt.migrations_per_op", Unit: "count", Better: "lower"},
	{Name: "adapt.splits_per_op", Unit: "count", Better: "lower"},
	{Name: "adapt.revisions_per_op", Unit: "count", Better: "lower"},

	{Name: "admit.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "admit.wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "admit.sheds", Unit: "count", Better: "lower"},
	{Name: "admit.queued_max", Unit: "count", Better: "lower"},

	{Name: "govern.degrade_events_per_op", Unit: "count", Better: "lower"},
	{Name: "govern.mem_peak_mib", Unit: "MiB", Better: "lower"},

	{Name: "spill.bytes_written_per_op", Unit: "B", Better: "lower"},
	{Name: "spill.bytes_read_per_op", Unit: "B", Better: "lower"},
	{Name: "spill.partitions_per_op", Unit: "count", Better: "lower"},

	{Name: "colstore.pool.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "colstore.pool.misses_per_op", Unit: "count", Better: "lower"},
	{Name: "colstore.pool.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "colstore.pool.max_resident_over_budget", Unit: "ratio", Better: "lower"},
	{Name: "colstore.ram_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "colstore.write_s", Unit: "s", Better: "lower"},
	{Name: "colstore.open_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "server.plan_cache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.result_cache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.encode_us_per_row", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "cluster.critical_path_ms.scan_agg", Unit: "ms", Better: "lower"},
	{Name: "cluster.critical_path_ms.colocated", Unit: "ms", Better: "lower"},
	{Name: "cluster.critical_path_ms.broadcast", Unit: "ms", Better: "lower"},
	{Name: "cluster.critical_path_ms.shuffle", Unit: "ms", Better: "lower"},
	{Name: "cluster.fabric_overhead_ms.scan_agg", Unit: "ms", Better: "lower"},
	{Name: "cluster.fabric_overhead_ms.colocated", Unit: "ms", Better: "lower"},
	{Name: "cluster.fabric_overhead_ms.broadcast", Unit: "ms", Better: "lower"},
	{Name: "cluster.fabric_overhead_ms.shuffle", Unit: "ms", Better: "lower"},
	{Name: "cluster.gathered_rows_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.fragment_retries", Unit: "count", Better: "lower"},
	{Name: "cluster.shuffle_over_colocated", Unit: "ratio", Better: "lower"},

	{Name: "proc.peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines_delta", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.unexplained_frac", Unit: "ratio", Better: "lower"},
}

// layerUnit returns the declared unit of a per-layer metric.
func layerUnit(name string) string {
	for _, m := range perLayerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("benchmark: undeclared per-layer metric " + name)
}
