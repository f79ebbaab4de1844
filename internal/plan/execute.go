package plan

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"partitionjoin/internal/adapt"
	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/spill"
	"partitionjoin/internal/storage"
)

// ExecResult is the outcome of executing a plan.
type ExecResult struct {
	Result *exec.Result
	Cols   []ColRef
	// SourceRows is the number of tuples emitted at pipeline sources;
	// the TPC-H throughput metric divides it by Duration (Section 5.3).
	SourceRows int64
	Duration   time.Duration
	// Degraded lists the memory governor's degradation decisions (BHJ
	// fallbacks, fan-out reductions, partition spills and reloads) taken
	// while executing this plan.
	Degraded []string
	// MemPeak is the high-water mark of governor-accounted bytes.
	MemPeak int64
	// DroppedEvents is how many degradation events the governor's bounded
	// log evicted; Degraded holds head and tail, this is the gap.
	DroppedEvents int64
	// Spill aggregates the spill-to-disk activity of all joins (zero when
	// nothing spilled or no spill directory was configured).
	Spill core.SpillStats
	// Reserved is the final admission reservation in bytes (initial grant
	// plus pool growth); zero when no broker was configured.
	Reserved int64
	// AdmitWait is how long the query queued for admission.
	AdmitWait time.Duration
	// Scan aggregates the scan layer's zone-map pruning and pushed-predicate
	// prefiltering counters for this query.
	Scan meter.ScanStats
	// Adapt is the runtime adaptation summary: mid-build migrations,
	// partition splits, reservation revisions, and the decision event log.
	// Zero when nothing adapted or Options.NoAdapt was set.
	Adapt adapt.Stats
	// Pool is the buffer-pool activity observed while this query ran, for
	// plans that scanned disk-backed tables; nil for RAM-resident plans.
	// Counters are deltas over the query (the pool is shared, so they
	// include any concurrent traffic); ResidentBytes is the pool's
	// residency as the query finished.
	Pool *storage.PagerStats
}

// Throughput returns source tuples per second.
func (r *ExecResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.SourceRows) / r.Duration.Seconds()
}

// ExecuteErr compiles and runs a plan tree under the given context,
// collecting the root's output. Cancellation and deadline expiry surface as
// the context's error; worker panics are contained by the driver and
// surface as errors naming the pipeline; compile-time panics (unknown
// columns, malformed trees) are converted to errors too. A positive
// Options.MemBudget arms the memory governor, which degrades radix joins
// rather than failing the query (see internal/govern). With Options.Broker
// set, the query first passes admission control: it may queue for pool
// memory, be shed with admit.ErrOverloaded, or later be cancelled by the
// stuck-query watchdog; the reservation is released when the query ends on
// any path.
func ExecuteErr(ctx context.Context, opts Options, root Node) (res *ExecResult, err error) {
	defer recoverToErr(&res, &err)
	p := Prepare(opts, root)
	return p.run(ctx, opts)
}

// recoverToErr converts compile-time panics (unknown columns, malformed
// trees) into errors; runtime worker panics are already contained by the
// driver.
func recoverToErr(res **ExecResult, err *error) {
	if r := recover(); r != nil {
		*res = nil
		if e, ok := r.(error); ok {
			*err = fmt.Errorf("plan: %w", e)
		} else {
			*err = fmt.Errorf("plan: %v", r)
		}
	}
}

// run admits (or adopts the caller's reservation) and executes the prepared
// tree. It is the shared core of ExecuteErr and Prepared.ExecuteErr; callers
// must have a recoverToErr deferred.
func (p *Prepared) run(ctx context.Context, opts Options) (*ExecResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.SpillDir == "" && opts.DataDir != "" {
		opts.SpillDir = filepath.Join(opts.DataDir, "spill")
	}
	rsv := opts.Reservation
	budget := opts.MemBudget
	switch {
	case rsv != nil:
		// The caller admitted and keeps the reservation across whatever
		// follows execution (e.g. streaming rows to a client); it runs us
		// under the admitted context and releases when done.
		budget = rsv.Bytes()
	case opts.Broker != nil:
		r, actx, aerr := opts.Broker.Admit(ctx, opts.MemBudget)
		if aerr != nil {
			return nil, fmt.Errorf("plan: %w", aerr)
		}
		// Released on success, error, cancellation, and contained panic
		// alike — the pool must balance to zero whatever the query does.
		defer r.Release()
		rsv, ctx = r, actx
		budget = r.Bytes()
	}
	gov := govern.New(budget)
	if rsv != nil {
		gov.SetBacking(rsv)
	}
	// The scan counters live on the meter; give the query a private one when
	// the caller didn't ask for metering so ExecResult.Scan is always real.
	if opts.Meter == nil {
		opts.Meter = meter.New()
	}
	root := p.root
	c := &compiler{opts: opts, gov: gov, workers: workers}
	if !opts.NoAdapt {
		c.adapt = adapt.NewController(adapt.Config{}, gov, opts.Meter)
	}
	if opts.SpillDir != "" {
		dir, derr := spill.NewDir(opts.SpillDir)
		if derr != nil {
			return nil, fmt.Errorf("plan: %w", derr)
		}
		// Deferred cleanup runs on success, error, cancellation, and panic
		// alike: no spill file survives the query.
		defer dir.Cleanup()
		c.spillDir = dir
	}
	// However the query ends, partition pages it did not get to join, the
	// hash tables and the group-by tables go back to the page pool (RunAll
	// returns only once every worker has).
	defer func() {
		for _, j := range c.radix {
			j.Discard()
		}
		for _, j := range c.hashJoins {
			j.Release()
		}
		for _, g := range c.groupBys {
			g.Release()
		}
	}()
	pp := c.compile(root)
	ts, caps := vecTypes(pp.cols)
	sink := &exec.CollectSink{Types: ts, Caps: caps, Gov: gov}
	c.terminate(pp, sink, "collect")
	poolPre := sumPagerStats(c.pagers)

	d := exec.NewDriver(workers)
	d.Meter = opts.Meter
	d.Progress = rsv.ProgressCounter()
	start := time.Now()
	if err := d.RunAll(ctx, c.pipelines); err != nil {
		return nil, err
	}
	for _, h := range c.harvests {
		h()
	}
	var spst core.SpillStats
	for _, sp := range c.spills {
		spst.Add(sp.Stats())
	}
	var pool *storage.PagerStats
	if len(c.pagers) > 0 {
		post := sumPagerStats(c.pagers)
		pool = &storage.PagerStats{
			Pins:          post.Pins - poolPre.Pins,
			Hits:          post.Hits - poolPre.Hits,
			Misses:        post.Misses - poolPre.Misses,
			Evictions:     post.Evictions - poolPre.Evictions,
			ResidentBytes: post.ResidentBytes,
		}
	}
	return &ExecResult{
		Pool:          pool,
		Result:        sink.Result(),
		Cols:          pp.cols,
		SourceRows:    d.SourceRows.Load(),
		Duration:      time.Since(start),
		Degraded:      gov.Events(),
		MemPeak:       gov.Peak(),
		DroppedEvents: gov.Dropped(),
		Spill:         spst,
		Reserved:      rsv.Bytes(),
		AdmitWait:     rsv.Waited(),
		Scan:          opts.Meter.Scan(),
		Adapt:         c.adapt.Stats(),
	}, nil
}

// sumPagerStats adds up counter snapshots across the plan's distinct pagers.
func sumPagerStats(pagers []storage.StatsPager) storage.PagerStats {
	var s storage.PagerStats
	for _, p := range pagers {
		st := p.PagerStats()
		s.Pins += st.Pins
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Evictions += st.Evictions
		s.ResidentBytes = st.ResidentBytes // shared pool: same value, not a sum
	}
	return s
}

// Execute is the historical API: ExecuteErr with a background context,
// panicking on failure.
func Execute(opts Options, root Node) *ExecResult {
	res, err := ExecuteErr(context.Background(), opts, root)
	if err != nil {
		panic(err)
	}
	return res
}

// TableFromResult materializes an executed result as a stored table so a
// later stage of a multi-stage query (scalar subqueries, HAVING thresholds)
// can scan and join it.
func TableFromResult(name string, cols []ColRef, r *exec.Result) *storage.Table {
	defs := make([]storage.ColumnDef, len(cols))
	for i, c := range cols {
		defs[i] = storage.ColumnDef{Name: c.Name, Type: c.Type, StrCap: c.StrCap}
	}
	t := storage.NewTable(name, storage.NewSchema(defs...), r.NumRows())
	for ci := range cols {
		v := &r.Vecs[ci]
		switch col := t.Cols[ci].(type) {
		case *storage.Int64Column:
			col.Values = append(col.Values, v.I64...)
		case *storage.Float64Column:
			col.Values = append(col.Values, v.F64...)
		case *storage.StringColumn:
			for _, s := range v.Str {
				col.Append(s)
			}
		}
	}
	return t
}

// ScalarI64 returns the single int64 value of a 1x1 result (scalar
// subqueries of the TPC-H rewrites).
func (r *ExecResult) ScalarI64() (int64, error) {
	if n := r.Result.NumRows(); n != 1 {
		return 0, fmt.Errorf("plan: scalar result has %d rows, want exactly 1", n)
	}
	return r.Result.Vecs[0].I64[0], nil
}

// ScalarF64 returns the single float64 value of a 1x1 result.
func (r *ExecResult) ScalarF64() (float64, error) {
	if n := r.Result.NumRows(); n != 1 {
		return 0, fmt.Errorf("plan: scalar result has %d rows, want exactly 1", n)
	}
	return r.Result.Vecs[0].F64[0], nil
}

// MustScalarI64 is ScalarI64 panicking on malformed results (tests).
func (r *ExecResult) MustScalarI64() int64 {
	v, err := r.ScalarI64()
	if err != nil {
		panic(err)
	}
	return v
}

// MustScalarF64 is ScalarF64 panicking on malformed results (tests).
func (r *ExecResult) MustScalarF64() float64 {
	v, err := r.ScalarF64()
	if err != nil {
		panic(err)
	}
	return v
}
