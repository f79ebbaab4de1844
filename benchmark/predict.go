package main

import (
	"fmt"
	"strings"
)

// prediction is one statement about a traced run that must hold on any
// healthy commit: mostly bypass predictions — a layer that does not run on
// a workload shows no work there. A broken one is a finding.
type prediction struct {
	text string
	ok   bool
}

// predictions evaluates the workload's predictions against a traced run.
func predictions(rec *runRecord) []prediction {
	val := func(name string) (float64, bool) {
		m, ok := rec.Metrics[name]
		return m.Value, ok
	}
	absent := func(prefix string) bool {
		for n := range rec.Metrics {
			if strings.HasPrefix(n, prefix) {
				return false
			}
		}
		return true
	}
	var ps []prediction
	add := func(ok bool, format string, args ...any) {
		ps = append(ps, prediction{fmt.Sprintf(format, args...), ok})
	}

	over, _ := val("trace.overhead_frac")
	add(over <= 0.10, "trace.overhead_frac = %.3f <= 0.10", over)
	leaked, _ := val("proc.goroutines_delta")
	add(leaked == 0, "proc.goroutines_delta = %.0f: no goroutine outlives the workload", leaked)

	if rec.Workload != "engine_mem_pressure" {
		spilled, _ := val("spill.bytes_written_per_op")
		add(spilled == 0, "spill.bytes_written_per_op = %.0f: nothing spills outside engine_mem_pressure", spilled)
		wait, _ := val("admit.wait_frac")
		add(wait < 0.02, "admit.wait_frac = %.4f < 0.02: admission never queues outside engine_mem_pressure", wait)
	} else {
		spilled, _ := val("spill.bytes_written_per_op")
		add(spilled > 0, "spill.bytes_written_per_op = %.0f > 0: the budget forces spilling", spilled)
		sheds, _ := val("admit.sheds")
		add(sheds == 0, "admit.sheds = %.0f: queued, never shed", sheds)
	}
	if rec.Workload != "store_coldscan" {
		add(absent("colstore."), "colstore.* absent: no column store outside store_coldscan")
	}
	if rec.Workload != "cluster_fabric" {
		add(absent("cluster."), "cluster.* absent: no coordinator outside cluster_fabric")
	}
	switch rec.Workload {
	case "serve_cached":
		hit, _ := val("server.result_cache.hit_rate")
		add(hit == 1, "server.result_cache.hit_rate = %.3f: every op is a result-cache hit", hit)
	case "serve_uncached":
		_, reported := val("server.result_cache.hit_rate")
		add(!reported, "server.result_cache.hit_rate absent: the result cache is off")
		hit, _ := val("server.plan_cache.hit_rate")
		add(hit == 1, "server.plan_cache.hit_rate = %.3f: the plan cache is warm", hit)
	case "micro_join":
		build, _ := val("core.build_ms")
		part, _ := val("core.partition_ms")
		probe, _ := val("core.probe_ms")
		total, _ := val("plan.exec_ms")
		share := 0.0
		if total > 0 {
			share = (build + part + probe) / total
		}
		add(share >= 0.80, "core self times are %.0f%% of plan.exec_ms (>= 80%%): core does the work", share*100)
		add(absent("server.") && absent("sql."), "server.* and sql.* absent: no SQL, no daemon")
	default:
		add(absent("server."), "server.* absent: no daemon in front of the caller")
	}
	return ps
}
