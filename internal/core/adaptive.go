package core

import (
	"sync"
	"sync/atomic"

	"partitionjoin/internal/adapt"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/pagepool"
)

// AdaptiveJoin makes the paper's partition-or-not answer revisable at
// runtime: the join starts as the BHJ the planner picked, and if the
// observed build outgrows the memory budget mid-build, it converts the
// in-progress build into radix partition pages and finishes as a
// (spillable) radix join — a staged migration, not a restart. The packed
// row format is what makes this cheap: every build row already carries its
// hash at offset 0, so migration is a re-scatter, never a re-hash or a
// re-scan of the input.
//
// Exactly one of the two underlying joins ever runs its probe/join phase;
// the migration decision is made (and frozen) while the build pipeline is
// still running, so the probe pipeline always sees a stable choice.
type AdaptiveJoin struct {
	BHJ *HashJoin
	RJ  *RadixJoin
	St  *adapt.JoinState
	// MaxWorkers is the driver's full parallelism. The radix sinks open at
	// this width so any pipeline's worker ids fit their per-worker slots.
	MaxWorkers int

	migrated    atomic.Bool
	migrateOnce sync.Once
	buildRows   atomic.Int64
}

// Migrated reports whether the build converted to radix partitions.
func (a *AdaptiveJoin) Migrated() bool { return a.migrated.Load() }

// projectedExtra returns the bytes HashBuildSink.Close would still grant on
// top of the current account if the build ended at n rows: the directory and
// the chain links over the pages taken so far. The pages themselves are
// already charged, so this is exactly Close's grant.
func (a *AdaptiveJoin) projectedExtra(n int64) int64 {
	return a.BHJ.tableBytes(int(n), int(a.BHJ.taken.Load()))
}

// BuildSink returns the adaptive pipeline breaker for the build side.
func (a *AdaptiveJoin) BuildSink() *AdaptiveBuildSink {
	return &AdaptiveBuildSink{A: a, hs: a.BHJ.BuildSink()}
}

// AdaptiveBuildSink wraps the BHJ build sink with a morsel-granularity
// checkpoint: after each consumed batch it projects the close-time memory
// need from the observed cardinality and asks the controller whether to
// keep going (possibly with a grown reservation) or migrate. After the
// switch, each worker lazily re-scatters its own build pages into the radix
// sink's partition pages and new batches partition directly.
type AdaptiveBuildSink struct {
	A       *AdaptiveJoin
	hs      *HashBuildSink
	drained []bool
}

// Open implements exec.Sink.
func (s *AdaptiveBuildSink) Open(workers int) {
	s.hs.Open(workers)
	s.drained = make([]bool, workers)
}

// Consume implements exec.Sink.
func (s *AdaptiveBuildSink) Consume(ctx *exec.Ctx, b *exec.Batch) {
	a := s.A
	if a.migrated.Load() {
		s.drainWorker(ctx)
		a.RJ.BuildSink.Consume(ctx, b)
		a.buildRows.Add(int64(b.N))
		return
	}
	// The batch's rows start at the end of the worker's last page, or on
	// the page Consume takes first.
	first, off := 0, 0
	if n := len(a.BHJ.wpages[ctx.Worker]); n > 0 {
		first, off = n-1, len(a.BHJ.wpages[ctx.Worker][n-1])
	}
	s.hs.Consume(ctx, b)
	s.sampleRows(a.BHJ.wpages[ctx.Worker][first:], off)
	rows := a.buildRows.Add(int64(b.N))
	a.St.Checkpoint()
	if a.St.ShouldMigrate(a.projectedExtra(rows)) {
		s.migrate(ctx)
	}
}

// sampleRows feeds a strided sample of freshly packed rows' hashes — those
// from byte off of the first page on — into the key-correlation sketch, so
// a later migration (or split decision) can size the fan-out from the
// distribution actually seen.
func (s *AdaptiveBuildSink) sampleRows(pages [][]byte, off int) {
	st := s.A.St
	stride := st.SampleEvery()
	if stride <= 0 {
		return
	}
	l := s.A.BHJ.Layout
	step := stride * l.Size
	for _, pg := range pages {
		for ; off < len(pg); off += step {
			st.Sample(l.Hash(pg[off:]))
		}
		off -= len(pg) // the stride carries across the page boundary
	}
}

// migrate flips the join to radix mode exactly once (sync.Once blocks the
// other workers until the sinks are open) and re-scatters the calling
// worker's build pages.
func (s *AdaptiveBuildSink) migrate(ctx *exec.Ctx) {
	a := s.A
	a.migrateOnce.Do(func() {
		a.St.BeginMigration(a.buildRows.Load())
		a.RJ.BuildSink.Open(a.MaxWorkers)
		a.RJ.ProbeSink.Open(a.MaxWorkers)
		a.migrated.Store(true)
	})
	s.drainWorker(ctx)
}

// drainWorker re-scatters one worker's BHJ build pages into the radix sink's
// pages, returning each page to the pool and its capacity to the governor
// once its rows are copied. Each worker drains its own pages on its next
// Consume after the switch; Close drains the stragglers.
func (s *AdaptiveBuildSink) drainWorker(ctx *exec.Ctx) {
	w := ctx.Worker
	if s.drained[w] {
		return
	}
	s.drained[w] = true
	j := s.A.BHJ
	for pages := &j.wpages[w]; len(*pages) > 0; {
		pg := (*pages)[0]
		s.A.RJ.BuildSink.ConsumePacked(ctx, pg)
		// The page leaves the list before it goes back, so a failure
		// between two pages leaves HashJoin.Release nothing to put twice.
		*pages = (*pages)[1:]
		j.Gov.Release(int64(cap(pg)))
		pagepool.Bytes.Put(pg)
	}
}

// Close implements exec.Sink: either the BHJ finishes its table as planned
// (and the reservation shrinks to observed truth), or the migrated radix
// build drains the remaining build pages and closes its partitioning passes.
func (s *AdaptiveBuildSink) Close() {
	a := s.A
	if !a.migrated.Load() {
		s.hs.Close()
		a.St.ShrinkAfterBuild(0)
		return
	}
	for w := range s.drained {
		if !s.drained[w] {
			s.drainWorker(&exec.Ctx{Worker: w, Workers: a.MaxWorkers})
		}
	}
	a.RJ.BuildSink.Close()
	a.St.ShrinkAfterBuild(a.St.EstProbeBytes())
}

// ProbeOp returns the adaptive probe operator feeding next. Pre-migration
// it is the BHJ's in-pipeline probe; post-migration it materializes probe
// tuples into the radix probe sink and emits nothing downstream — the join
// results then come from the deferred JoinSource pipeline instead. Both
// shapes produce the same output schema, so downstream operators never
// notice which path ran.
func (a *AdaptiveJoin) ProbeOp(next exec.Operator) *AdaptiveProbeOp {
	return &AdaptiveProbeOp{A: a, inner: a.BHJ.ProbeOp(next)}
}

// AdaptiveProbeOp routes probe batches to whichever join won the build.
type AdaptiveProbeOp struct {
	A     *AdaptiveJoin
	inner *HashProbeOp
}

// Process implements exec.Operator.
func (o *AdaptiveProbeOp) Process(ctx *exec.Ctx, b *exec.Batch) {
	if o.A.migrated.Load() {
		o.A.RJ.ProbeSink.Consume(ctx, b)
		return
	}
	o.inner.Process(ctx, b)
}

// Flush implements exec.Operator.
func (o *AdaptiveProbeOp) Flush(ctx *exec.Ctx) { o.inner.Flush(ctx) }

// JoinSource returns the deferred join pipeline source: zero tasks when the
// BHJ kept the build (its probe already streamed the results), the radix
// join's partition pairs after a migration. Closing the probe sink happens
// here because in adaptive wiring the radix probe sink sits mid-pipeline
// rather than terminating one.
func (a *AdaptiveJoin) JoinSource() *AdaptiveJoinSource {
	return &AdaptiveJoinSource{A: a}
}

// AdaptiveJoinSource implements exec.Source.
type AdaptiveJoinSource struct {
	A   *AdaptiveJoin
	src *PartitionJoinSource
}

// Tasks implements exec.Source.
func (s *AdaptiveJoinSource) Tasks() int {
	if !s.A.migrated.Load() {
		return 0
	}
	s.A.RJ.ProbeSink.Close()
	s.src = s.A.RJ.JoinSource()
	return s.src.Tasks()
}

// Emit implements exec.Source.
func (s *AdaptiveJoinSource) Emit(ctx *exec.Ctx, task int, out exec.Operator) {
	s.src.Emit(ctx, task, out)
}

// emitSplit re-partitions one skewed resident partition pair on the next k
// hash bits at join time and joins the sub-pairs separately — the
// incremental-fan-out recovery: only the partition that actually overflowed
// pays for finer partitioning, everyone else keeps the original layout.
// Correctness is inherited from the radix invariant: a probe row's
// potential matches share all hash bits used for partitioning, so key
// matches never cross sub-partitions, and each build row lands in exactly
// one sub-partition so matched-flag kinds (outer/semi/anti) stay exact.
func (s *PartitionJoinSource) emitSplit(ctx *exec.Ctx, out exec.Operator, pid int, bch, pch [][]byte) {
	j := s.J
	bl, pl := j.BuildSink.Layout, j.ProbeSink.Layout
	target := int64(j.Cfg.CacheBudget)
	bBytes := chunkBytes(bch)
	k := 1
	for bBytes>>k > target && k < 6 {
		k++
	}
	j.Adapt.BeginSplit(pid, bBytes/int64(bl.Size), k)
	shift := uint(j.Cfg.Pass1Bits + j.b2)
	bsub, psub := make([]pagedPart, 1<<k), make([]pagedPart, 1<<k)
	// The task owns the chunks until they are scattered and each sub-pair
	// until joinChunks takes it: a failure part-way hands back what it
	// still holds.
	next := 0
	defer func() {
		j.free(bch...)
		j.free(pch...)
		for i := next; i < len(bsub); i++ {
			j.free(bsub[i].pages...)
			j.free(psub[i].pages...)
		}
	}()
	j.scatterSub(bl, bch, shift, bsub)
	j.free(bch...)
	bch = nil
	j.scatterSub(pl, pch, shift, psub)
	j.free(pch...)
	pch = nil
	for next < len(bsub) {
		i := next
		next++
		s.joinChunks(ctx, out, bsub[i].pages, psub[i].pages)
	}
}

// scatterSub scatters one partition's packed rows by hash bits
// shift..shift+log2(len(sub))-1 into pooled pages appended to sub.
func (j *RadixJoin) scatterSub(l *Layout, chunks [][]byte, shift uint, sub []pagedPart) {
	take := j.page
	for _, part := range chunks {
		for off := 0; off < len(part); off += l.Size {
			row := part[off : off+l.Size]
			sub[int(l.Hash(row)>>shift)&(len(sub)-1)].write(row, l.Size, take)
		}
	}
}
