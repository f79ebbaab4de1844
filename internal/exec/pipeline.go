package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/meter"
)

// Pipeline is one source-to-breaker dataflow of a query plan. NewChain
// builds the worker-local fused operator chain; the chain's terminal
// operator must feed Sink (usually via SinkOp). The driver executes the
// pipelines of a plan in order: a pipeline only starts after the pipelines
// producing its inputs (hash tables, partitions) have closed, mirroring the
// produce/consume compilation of Algorithm 1.
type Pipeline struct {
	Name     string
	Source   Source
	NewChain func(ctx *Ctx) Operator
	Sink     Sink

	// SinkWorkers, when > 0, overrides the worker count passed to
	// Sink.Open. Sinks shared across pipelines with different task counts
	// (sweep pipelines reusing the main pipeline's terminal sink) must be
	// opened with the maximum concurrency any sharing pipeline can reach,
	// even if this pipeline's own worker count is clamped lower.
	SinkWorkers int
}

// Driver runs pipelines with a fixed worker count.
type Driver struct {
	Workers int
	Meter   *meter.Meter

	// SourceRows accumulates tuples emitted at sources across all
	// pipelines run by this driver (the paper's throughput denominator).
	SourceRows atomic.Int64

	// Progress, when set, is ticked once per claimed morsel across all
	// pipelines — the liveness signal the admission watchdog samples to
	// detect stuck queries. Nil costs nothing.
	Progress *atomic.Int64
}

// NewDriver returns a driver with the given parallelism; workers <= 0 uses
// GOMAXPROCS.
func NewDriver(workers int) *Driver {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Driver{Workers: workers}
}

// MorselSite is the fault-injection site visited once per claimed morsel by
// every worker.
const MorselSite = "exec.morsel"

var _ = faultinject.Register(MorselSite)

// panicErr converts a recovered panic value into an error tagged with the
// pipeline name and worker id. Error values are wrapped so errors.Is/As see
// through to the cause (injected faults, governor failures); other values
// get the stack attached since they indicate a real bug.
func panicErr(pipeline string, worker int, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("exec: pipeline %q worker %d panicked: %w", pipeline, worker, err)
	}
	return fmt.Errorf("exec: pipeline %q worker %d panicked: %v\n%s", pipeline, worker, r, debug.Stack())
}

// Run executes one pipeline to completion: opens the sink, spawns workers
// that claim source tasks through an atomic cursor (work stealing across
// morsels), flushes each worker's chain, and closes the sink.
//
// ctx cancellation (or deadline expiry) stops workers at the next
// morsel-claim boundary and is returned as the context's cause. A panic in
// any worker is recovered, converted to an error naming the pipeline and
// worker, and cancels the sibling workers; the first cause wins. The sink
// is always closed exactly once, even on failure, so pipeline-breaker state
// never leaks goroutines or leaves shared sinks half-open.
func (d *Driver) Run(ctx context.Context, p *Pipeline) error {
	tasks := p.Source.Tasks()
	workers := d.Workers
	if workers > tasks && tasks > 0 {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	sinkWorkers := workers
	if p.SinkWorkers > 0 {
		sinkWorkers = p.SinkWorkers
	}

	var firstErr error
	var once sync.Once
	wctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel(err)
		})
	}

	// guard runs fn with panic containment, reporting a recovered panic
	// as the pipeline's failure without letting it escape the driver.
	guard := func(worker int, fn func()) {
		defer func() {
			if r := recover(); r != nil {
				fail(panicErr(p.Name, worker, r))
			}
		}()
		fn()
	}

	opened := false
	if p.Sink != nil {
		guard(-1, func() { p.Sink.Open(sinkWorkers); opened = true })
	}
	if firstErr == nil {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				guard(w, func() {
					ctx := &Ctx{
						Worker: w, Workers: workers,
						Query: wctx, Meter: d.Meter, SourceRows: &d.SourceRows,
					}
					chain := p.NewChain(ctx)
					for wctx.Err() == nil {
						t := int(cursor.Add(1)) - 1
						if t >= tasks {
							break
						}
						if d.Progress != nil {
							d.Progress.Add(1)
						}
						faultinject.HitCtx(wctx, MorselSite)
						p.Source.Emit(ctx, t, chain)
					}
					if wctx.Err() == nil {
						chain.Flush(ctx)
					}
				})
			}(w)
		}
		wg.Wait()
	}
	if opened {
		// Close exactly once even on failure; a worker error set first
		// keeps precedence over a close panic via the once in fail.
		guard(-1, func() { p.Sink.Close() })
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	return nil
}

// RunAll executes pipelines in order, stopping at the first failure.
func (d *Driver) RunAll(ctx context.Context, ps []*Pipeline) error {
	for _, p := range ps {
		if d.Meter != nil && p.Name != "" {
			d.Meter.BeginPhase(p.Name)
		}
		err := d.Run(ctx, p)
		if d.Meter != nil && p.Name != "" {
			d.Meter.EndPhase()
		}
		if err != nil {
			return err
		}
	}
	return nil
}
