package exec

import (
	"context"
	"sync/atomic"

	"partitionjoin/internal/meter"
	"partitionjoin/internal/storage"
)

// Ctx is the per-worker execution context. Every worker of a pipeline gets
// its own Ctx and its own operator chain, so operators keep worker-local
// state (staging buffers, write-combine buffers, scratch vectors) without
// synchronization — the same discipline the paper's morsel-driven system
// enforces.
type Ctx struct {
	Worker  int
	Workers int
	Meter   *meter.Meter

	// Query is the query-scoped context carrying cancellation and
	// deadlines into operators; long-running sources poll Err between
	// batches so a cancelled query stops mid-morsel, not just at the
	// next claim. Nil means "never cancelled" (tests building a Ctx by
	// hand).
	Query context.Context

	// SourceRows counts the tuples emitted at pipeline sources; the
	// TPC-H throughput metric of Section 5.3 is the sum of these counts
	// divided by the wall time.
	SourceRows *atomic.Int64

	// Keep is a shared scratch flag array for filters, sized to at least
	// the batch being filtered.
	Keep []bool

	// scanBatch is the worker's reusable source batch; a Ctx belongs to
	// exactly one pipeline, and a pipeline has exactly one source.
	scanBatch *Batch
}

// Err reports the query context's cancellation state; nil-context Ctxs are
// never cancelled.
func (c *Ctx) Err() error {
	if c.Query == nil {
		return nil
	}
	return c.Query.Err()
}

// KeepBuf returns the scratch keep buffer resized to n.
func (c *Ctx) KeepBuf(n int) []bool {
	if cap(c.Keep) < n {
		c.Keep = make([]bool, n)
	}
	c.Keep = c.Keep[:n]
	return c.Keep
}

// ScratchBatch returns the worker's reusable source batch, allocating it
// with the given shape on first use. Sources outside this package use it
// for their per-worker output batch.
func (c *Ctx) ScratchBatch(types []storage.Type, caps []int) *Batch {
	if c.scanBatch == nil {
		c.scanBatch = NewBatch(types, caps)
	}
	return c.scanBatch
}

// Operator is a node of a per-worker fused pipeline chain. Process consumes
// one batch and pushes derived batches to its successor; it may mutate the
// batch in place (filters compact, maps append vectors). Flush drains what
// an operator buffers (ROF staging, write-combine buffers): the driver calls
// it once per worker after the source is exhausted, and a source may call it
// after a task to be done with the memory its batches pointed into (the
// radix join does after each partition pair), so an operator takes further
// batches after a Flush.
type Operator interface {
	Process(ctx *Ctx, b *Batch)
	Flush(ctx *Ctx)
}

// Sink is the shared pipeline-breaker state at the end of a pipeline: a
// hash-table build, a radix partitioner, an aggregation, a sort, or a
// result collector. Open is called once before the pipeline runs, Consume
// concurrently by all workers, and Close once after they finish.
type Sink interface {
	Open(workers int)
	Consume(ctx *Ctx, b *Batch)
	Close()
}

// SinkOp adapts a shared Sink to the end of a per-worker operator chain.
type SinkOp struct {
	S Sink
}

// Process implements Operator.
func (s *SinkOp) Process(ctx *Ctx, b *Batch) {
	if b.N > 0 {
		s.S.Consume(ctx, b)
	}
}

// Flush implements Operator. Sinks drain in Close, not per worker.
func (s *SinkOp) Flush(ctx *Ctx) {}

// Source produces the batches of a pipeline. Tasks returns the number of
// independent work units (morsels, partitions); Emit runs one unit, pushing
// every produced batch into the worker's chain. The driver hands out task
// indices through an atomic counter, which is exactly the work-stealing
// morsel dispatch of Leis et al.
type Source interface {
	Tasks() int
	Emit(ctx *Ctx, task int, out Operator)
}

// FilterOp compacts batches with a predicate closure that fills keep flags.
// The expression layer compiles predicate trees into these closures.
type FilterOp struct {
	Next Operator
	Pred func(ctx *Ctx, b *Batch, keep []bool)
}

// Process implements Operator.
func (f *FilterOp) Process(ctx *Ctx, b *Batch) {
	if b.N == 0 {
		return
	}
	keep := ctx.KeepBuf(b.N)
	f.Pred(ctx, b, keep)
	b.Compact(keep)
	if b.N > 0 {
		f.Next.Process(ctx, b)
	}
}

// Flush implements Operator.
func (f *FilterOp) Flush(ctx *Ctx) { f.Next.Flush(ctx) }

// MapOp appends computed vectors to the batch (projection extension).
type MapOp struct {
	Next Operator
	Fn   func(ctx *Ctx, b *Batch)
}

// Process implements Operator.
func (m *MapOp) Process(ctx *Ctx, b *Batch) {
	if b.N == 0 {
		return
	}
	m.Fn(ctx, b)
	m.Next.Process(ctx, b)
}

// Flush implements Operator.
func (m *MapOp) Flush(ctx *Ctx) { m.Next.Flush(ctx) }

// ProjectOp reorders/narrows the batch to the given vector indices.
type ProjectOp struct {
	Next Operator
	Idx  []int
	out  Batch
}

// Process implements Operator.
func (p *ProjectOp) Process(ctx *Ctx, b *Batch) {
	if b.N == 0 {
		return
	}
	if p.out.Vecs == nil {
		p.out.Vecs = make([]Vector, len(p.Idx))
	}
	for i, src := range p.Idx {
		p.out.Vecs[i] = b.Vecs[src]
	}
	p.out.N = b.N
	p.Next.Process(ctx, &p.out)
}

// Flush implements Operator.
func (p *ProjectOp) Flush(ctx *Ctx) { p.Next.Flush(ctx) }
