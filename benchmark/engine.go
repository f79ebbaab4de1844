package main

import (
	"context"
	"strings"
	"time"

	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/storage"
)

// countJoin is the paper's microbenchmark statement,
// "SELECT count(*) FROM probe r, build s WHERE r.fk = s.key", as a plan.
func countJoin(build, probe *storage.Table) plan.Node {
	j := &plan.JoinNode{
		ID: 1, Kind: core.Inner,
		Build:     plan.Scan(build, "key"),
		Probe:     plan.Scan(probe, "fk"),
		BuildKeys: []string{"key"}, ProbeKeys: []string{"fk"},
	}
	return plan.GroupBy(j, nil, plan.AggExpr{Kind: exec.AggCount, As: "n"})
}

// engineOpts are the execution options every direct engine call starts from.
func engineOpts(procs int, algo plan.JoinAlgo) plan.Options {
	o := plan.DefaultOptions()
	o.Workers = procs
	o.Algo = algo
	return o
}

// execObs is what one engine execution exposes through the public API: the
// ExecResult's stat blocks, the meter's phases and byte counts, and the
// stats collector's per-join cardinalities. Multi-stage TPC-H queries sum
// their stages.
type execObs struct {
	algo   string
	dur    time.Duration
	rows   int64
	phases []meter.Phase
	// epoch is the wall-clock instant the meter's phase offsets count from.
	epoch         time.Time
	read, written int64
	joins         []*plan.JoinStat
	scan          meter.ScanStats
	migrations    int64
	splits        int64
	revisions     int64
	admitWait     time.Duration
	degraded      int64
	memPeak       int64
	spillWritten  int64
	spillRead     int64
	spillParts    int
}

// observeExec fills an execObs from a single-stage execution.
func observeExec(algo plan.JoinAlgo, epoch time.Time, res *plan.ExecResult, m *meter.Meter, st *plan.StatsCollector) execObs {
	read, written := m.Totals()
	return execObs{
		algo: algo.String(), dur: res.Duration, rows: res.SourceRows,
		phases: m.Phases(), epoch: epoch, read: read, written: written,
		joins: st.Joins(), scan: res.Scan,
		migrations: res.Adapt.Migrations, splits: res.Adapt.Splits, revisions: res.Adapt.Revisions(),
		admitWait: res.AdmitWait,
		degraded:  int64(len(res.Degraded)) + res.DroppedEvents, memPeak: res.MemPeak,
		spillWritten: res.Spill.SpilledBytes, spillRead: res.Spill.ReloadedBytes, spillParts: res.Spill.Partitions,
	}
}

// phaseSpan names the span a meter phase is recorded as. A radix join's
// partition-pair phase is fused with its consumer ("join+aggregate"); a
// non-partitioned join probes inside the pipeline that streams its probe
// side, so every non-build pipeline of a query that ran a BHJ is a probe
// pipeline. Only join-free pipelines are charged to exec.
func phaseSpan(name string, bhjProbes bool) (layer, span string) {
	switch {
	case name == "build":
		return "core", "core.build"
	case strings.HasPrefix(name, "partition pass"):
		return "core", "core.partition"
	case strings.HasPrefix(name, "join+"), bhjProbes:
		return "core", "core.probe"
	}
	return "exec", "exec.scan"
}

// record stores one execution's observations and turns its meter phases
// into child spans of parent.
func (r *opRec) record(parent int, x execObs) {
	o := r.obs
	// The stats collector names the algorithm each join actually ran: a
	// radix join the governor degraded probes like a BHJ.
	bhjProbes := false
	for _, j := range x.joins {
		bhjProbes = bhjProbes || j.Algo == plan.BHJ
	}
	for _, ph := range x.phases {
		layer, name := phaseSpan(ph.Name, bhjProbes)
		r.tr.add(parent, r.op, layer, name, x.epoch.Add(ph.Start), x.epoch.Add(ph.End), false)
	}
	o.add("exec.n", 1)
	o.add("plan.exec_ms", ms(x.dur))
	o.add("rows."+x.algo, float64(x.rows))
	o.add("secs."+x.algo, x.dur.Seconds())
	o.add("bytes.read", float64(x.read))
	o.add("bytes.written", float64(x.written))
	o.add("bytes.rows", float64(x.rows))
	for _, j := range x.joins {
		o.add("join.probe_rows", float64(j.ProbeRows))
		o.add("join.matches", float64(j.Matches))
	}
	o.add("scan.morsels", float64(x.scan.MorselsPruned))
	o.add("scan.batches", float64(x.scan.BatchesPruned))
	o.add("scan.rows", float64(x.scan.RowsPrefiltered))
	o.add("adapt.migrations", float64(x.migrations))
	o.add("adapt.splits", float64(x.splits))
	o.add("adapt.revisions", float64(x.revisions))
	o.add("admit.wait_ms", ms(x.admitWait))
	o.add("govern.degraded", float64(x.degraded))
	o.add("govern.peak", float64(x.memPeak))
	o.add("spill.written", float64(x.spillWritten))
	o.add("spill.read", float64(x.spillRead))
	o.add("spill.parts", float64(x.spillParts))
}

// execPlan runs root through the plan layer. Untraced it is one
// plan.ExecuteErr call; traced it goes through the equivalent
// PrepareErr → Prepared.ExecuteErr pair with a meter and a stats collector
// attached, one span around each call.
func execPlan(ctx context.Context, rec *opRec, group string, opts plan.Options, root plan.Node) (*plan.ExecResult, error) {
	if rec == nil {
		return plan.ExecuteErr(ctx, opts, root)
	}
	st := plan.NewStatsCollector()
	opts.Stats = st
	t0 := time.Now()
	p, err := plan.PrepareErr(opts, root)
	t1 := time.Now()
	rec.span("plan", "plan.PrepareErr", t0, t1)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	opts.Meter = meter.New()
	res, err := p.ExecuteErr(ctx, opts)
	ex := rec.span("plan", "plan.ExecuteErr", epoch, time.Now())
	if err != nil {
		return nil, err
	}
	rec.record(ex, observeExec(opts.Algo, epoch, res, opts.Meter, st))
	rec.obs.add("group."+group+"."+opts.Algo.String(), ms(res.Duration))
	return res, nil
}

// digestTraced digests a result and, when traced, records the time as the
// benchmark's own so it is not left unexplained.
func digestTraced(rec *opRec, r *exec.Result) digest {
	t0 := time.Now()
	d := digestResult(r)
	if rec != nil {
		rec.span("bench", "bench.digest", t0, time.Now())
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fromMS(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// engineLayers reduces the engine observations — from direct ops, or from
// the staged replays of workloads whose engine sits behind HTTP — to the
// sql, plan, core, exec, adapt, admit, govern and spill metrics.
func engineLayers(in layerInput, out map[string]float64) {
	o := in.obs
	n := sum(o.get("exec.n"))
	if n == 0 {
		return
	}
	perExec := func(key string) float64 { return sum(o.get(key)) / n }
	selfMS := func(span string) float64 { return ms(in.trace.selfByName[span]) / n }
	// perSpanUS is the mean self time of the spans called name, where any
	// were recorded.
	perSpanUS := func(metric, name string) {
		if c := in.trace.countByName[name]; c > 0 {
			out[metric] = ms(in.trace.selfByName[name]) * 1000 / float64(c)
		}
	}
	perSpanUS("sql.normalize_us", "sql.Normalize")
	perSpanUS("sql.parse_us", "sql.Parse")
	perSpanUS("sql.plan_us", "sql.Plan")
	perSpanUS("plan.prepare_us", "plan.PrepareErr")
	out["plan.exec_ms"] = perExec("plan.exec_ms")
	tput := map[string]float64{}
	for _, a := range []string{"BHJ", "BRJ", "RJ"} {
		if secs := sum(o.get("secs." + a)); secs > 0 {
			tput[a] = sum(o.get("rows."+a)) / secs / 1e6
			out["plan."+strings.ToLower(a)+".mtuples_per_s"] = tput[a]
		}
	}
	if tput["BHJ"] > 0 && tput["RJ"] > 0 {
		out["plan.rj_over_bhj"] = tput["RJ"] / tput["BHJ"]
	}
	if tput["BHJ"] > 0 && tput["BRJ"] > 0 {
		out["plan.brj_over_bhj"] = tput["BRJ"] / tput["BHJ"]
	}
	if wins, ok := partWins(o); ok {
		out["plan.part_wins"] = wins
	}

	out["core.build_ms"] = selfMS("core.build")
	out["core.partition_ms"] = selfMS("core.partition")
	out["core.probe_ms"] = selfMS("core.probe")
	if rows := sum(o.get("bytes.rows")); rows > 0 {
		out["core.bytes_read_per_tuple"] = sum(o.get("bytes.read")) / rows
		out["core.bytes_written_per_tuple"] = sum(o.get("bytes.written")) / rows
	}
	if probes := sum(o.get("join.probe_rows")); probes > 0 {
		out["core.match_rate"] = sum(o.get("join.matches")) / probes
	}

	out["exec.scan_ms"] = selfMS("exec.scan")
	out["exec.morsels_pruned_per_op"] = perExec("scan.morsels")
	out["exec.batches_pruned_per_op"] = perExec("scan.batches")
	out["exec.rows_prefiltered_per_op"] = perExec("scan.rows")

	out["adapt.migrations_per_op"] = perExec("adapt.migrations")
	out["adapt.splits_per_op"] = perExec("adapt.splits")
	out["adapt.revisions_per_op"] = perExec("adapt.revisions")

	// Ops behind HTTP report their admission wait in the response; direct
	// engine ops carry it on the ExecResult.
	waits := o.get("admit.op_wait_ms")
	if len(waits) == 0 {
		waits = o.get("admit.wait_ms")
	}
	out["admit.wait_ms_p50"] = median(waits)
	if in.latency > 0 {
		out["admit.wait_frac"] = sum(waits) / in.latency
	}

	out["govern.degrade_events_per_op"] = perExec("govern.degraded")
	out["govern.mem_peak_mib"] = maxOf(o.get("govern.peak")) / (1 << 20)

	out["spill.bytes_written_per_op"] = perExec("spill.written")
	out["spill.bytes_read_per_op"] = perExec("spill.read")
	out["spill.partitions_per_op"] = perExec("spill.parts")
}

// partWins counts the op groups (a selectivity, a TPC-H query) whose median
// RJ or BRJ execution beat the median BHJ execution: the paper's "which
// joins gain from partitioning", as a tracked number.
func partWins(o *observations) (float64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var wins float64
	seen := false
	for key, bhj := range o.v {
		if !strings.HasPrefix(key, "group.") || !strings.HasSuffix(key, ".BHJ") {
			continue
		}
		base := strings.TrimSuffix(key, "BHJ")
		rj, brj := o.v[base+"RJ"], o.v[base+"BRJ"]
		if len(rj) == 0 && len(brj) == 0 {
			continue
		}
		seen = true
		b := median(bhj)
		if (len(rj) > 0 && median(rj) < b) || (len(brj) > 0 && median(brj) < b) {
			wins++
		}
	}
	return wins, seen
}
