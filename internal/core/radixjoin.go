package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"partitionjoin/internal/adapt"
	"partitionjoin/internal/bloom"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/storage"
)

// JoinEmitSite is the fault-injection site visited once per partition pair
// in the join phase.
const JoinEmitSite = "core.join.emit"

// RadixJoin couples the two radix sinks of a partitioned join with the
// final join phase (Algorithm 1): the plan runs the build pipeline into
// BuildSink, then the probe pipeline into ProbeSink (optionally through a
// BloomProbeOp), then the join pipeline from JoinSource. The join is a full
// pipeline breaker and a pipeline starter (Figure 4).
type RadixJoin struct {
	Cfg  Config
	Kind JoinKind

	BuildSink *RadixSink
	ProbeSink *RadixSink

	// BuildOut / ProbeOut are the layout column indices each side
	// contributes to the join result, in output order (build columns
	// first, as in t_build ∘ t_probe of Algorithm 2).
	BuildOut []int
	ProbeOut []int

	// Residual, when non-nil, must also hold for a key-equal pair to
	// match (e.g. Q21's l2.l_suppkey <> l1.l_suppkey).
	Residual func(brow, prow []byte) bool

	Meter *meter.Meter

	// Gov is the query's memory governor; partition pages and write-combine
	// buffers are accounted against it while the join holds them, and
	// decideBits consults it to shed fan-out bits under pressure.
	// Nil means ungoverned. Set before the build pipeline runs.
	Gov *govern.Governor

	// Spill, when non-nil, arms the grace-hash escape hatch: partitions
	// evict to checksummed run files when a grant would exceed the budget,
	// and the join phase reloads them pair by pair. Set with Gov before the
	// build pipeline runs; nil keeps the in-memory-only behavior.
	Spill *JoinSpill

	// Adapt, when non-nil, is this join's runtime adaptation state: the
	// build sink feeds its key-correlation sketch, decideBits consults the
	// sketch to widen the fan-out under observed skew, and the join phase
	// re-partitions resident partitions past its split threshold. Nil keeps
	// the static plan-time behavior exactly.
	Adapt *adapt.JoinState

	// StatProbeRows and StatMatches count probe tuples entering the
	// join phase and key-matched pairs, for the per-join analysis
	// (Figures 1, 2 and 13).
	StatProbeRows atomic.Int64
	StatMatches   atomic.Int64

	// DegradedBits reports how many second-pass fan-out bits the memory
	// governor shed relative to the cache-optimal choice (0 = none).
	DegradedBits int

	filter        *bloom.Filter
	bloomDisabled atomic.Bool
	b2            int
	b2Decided     bool
}

// NewRadixJoin wires a radix join. buildLayout/probeLayout describe the
// materialized rows of each side; buildCols/probeCols map layout columns to
// batch vector indices of the respective input pipelines; keyCols give the
// key vector indices, hashCol an optional precomputed-hash vector (-1 to
// hash in the sink).
func NewRadixJoin(cfg Config, kind JoinKind, m *meter.Meter,
	buildLayout *Layout, buildCols, buildKeyCols []int, buildHashCol int,
	probeLayout *Layout, probeCols, probeKeyCols []int, probeHashCol int,
	buildOut, probeOut []int,
) *RadixJoin {
	j := &RadixJoin{Cfg: cfg, Kind: kind, Meter: m, BuildOut: buildOut, ProbeOut: probeOut}
	j.BuildSink = &RadixSink{Cfg: cfg, Layout: buildLayout, Cols: buildCols,
		KeyCols: buildKeyCols, HashCol: buildHashCol, Side: "build", Join: j, Meter: m}
	j.ProbeSink = &RadixSink{Cfg: cfg, Layout: probeLayout, Cols: probeCols,
		KeyCols: probeKeyCols, HashCol: probeHashCol, Side: "probe", Join: j, Meter: m}
	return j
}

// decideBits fixes the second-pass fan-out. The build side decides from its
// own materialized size (the partition-fits-in-cache invariant); the probe
// side reuses the build's decision so partition pairs line up. workers is
// the number of workers that materialized the side (it scales the projected
// write-combine overhead of pass 2).
//
// When a memory budget is set, the cache-optimal fan-out is walked down one
// bit at a time while the projected pass-2 footprint — per worker the
// scattered copy of one pre-partition and the write-combine buffers, plus
// the histogram — still exceeds what remains of the budget. This is the
// first rung of the degradation ladder; the planner's BHJ fallback
// (plan.compileJoin) is the second. A reduced fan-out trades cache locality
// for memory, which the paper's sensitivity results show is the right
// direction: a slightly coarser partitioning degrades throughput gently,
// while an OOM kill does not degrade at all.
func (j *RadixJoin) decideBits(s *RadixSink, totalRows int64, workers int) int {
	if s == j.BuildSink {
		total := totalBitsFor(j.Cfg, totalRows*int64(s.Layout.Size))
		b2 := total - j.Cfg.Pass1Bits
		if b2 < 0 {
			b2 = 0
		}
		if b2 > j.Cfg.MaxPass2Bits {
			b2 = j.Cfg.MaxPass2Bits
		}
		// Correlation-aware widening: the static formula divides total
		// bytes by the fan-out, which under skew leaves the hot partition
		// over the cache budget. The sketch sees the real distribution and
		// only ever widens, so uniform workloads keep the static choice.
		b2 = j.Adapt.ChooseBits(b2, j.Cfg.Pass1Bits, j.Cfg.MaxPass2Bits,
			s.Layout.Size, totalRows, j.Cfg.CacheBudget)
		if g := j.Gov; g.Budgeted() {
			prePart := totalRows * int64(s.Layout.Size) >> uint(j.Cfg.Pass1Bits)
			overhead := func(b2 int) int64 {
				f2 := int64(1) << b2
				perWorker := prePart + f2*int64(s.swwcbBytes())
				hist := int64(1) << uint(j.Cfg.Pass1Bits+b2) * 8
				return int64(workers)*perWorker + hist
			}
			want := b2
			for b2 > 0 && g.WouldExceed(overhead(b2)) {
				b2--
			}
			if b2 < want {
				j.DegradedBits = want - b2
				g.Note("radix join: fan-out reduced from %d to %d second-pass bits (budget %d B, used %d B)",
					want, b2, g.Budget(), g.Used())
			}
		}
		j.b2 = b2
		j.b2Decided = true
		return b2
	}
	if !j.b2Decided {
		panic("core: probe side partitioned before build side")
	}
	return j.b2
}

// buildFilter allocates the Bloom filter when this is the build side of a
// BRJ; the side's last partitioning pass fills it. Blocks >= fan-out
// guarantees partition-disjoint writes. When any build rows spilled, the
// filter is disabled: spilled keys would be absent from it and the probe
// reducer would wrongly drop their matches.
func (j *RadixJoin) buildFilter(s *RadixSink, totalRows int64) *bloom.Filter {
	if !j.Cfg.Bloom || s != j.BuildSink {
		return nil
	}
	if sp := j.Spill; sp != nil && sp.spilledRowsTotal(s.Side) > 0 {
		j.bloomDisabled.Store(true)
		j.Gov.Note("radix join: Bloom filter disabled, build side spilled")
		return nil
	}
	j.filter = bloom.New(int(totalRows), 1<<(j.Cfg.Pass1Bits+j.b2))
	return j.filter
}

// Filter exposes the built Bloom filter (nil before the build side closed
// or when Bloom is off).
func (j *RadixJoin) Filter() *bloom.Filter { return j.filter }

// BloomDisabled reports whether the adaptive logic switched the filter off.
func (j *RadixJoin) BloomDisabled() bool { return j.bloomDisabled.Load() }

// BloomProbeOp is the semi-join reducer in the probe pipeline: it drops
// tuples whose hash cannot be in the build side before they are
// materialized into partitions (Figure 7). With AdaptiveBloom it samples
// the pass rate and disables itself when almost every tuple passes, since
// then the extra block load cannot pay for itself (Section 5.4.1).
type BloomProbeOp struct {
	Next    exec.Operator
	Join    *RadixJoin
	HashCol int

	sampled int
	passed  int
}

// Process implements exec.Operator.
func (o *BloomProbeOp) Process(ctx *exec.Ctx, b *exec.Batch) {
	j := o.Join
	f := j.filter
	if f == nil || j.bloomDisabled.Load() {
		o.Next.Process(ctx, b)
		return
	}
	keep := ctx.KeepBuf(b.N)
	h := b.Vecs[o.HashCol].I64
	pass := 0
	for i := 0; i < b.N; i++ {
		ok := f.MayContain(uint64(h[i]))
		keep[i] = ok
		if ok {
			pass++
		}
	}
	if j.Cfg.AdaptiveBloom && o.sampled < j.Cfg.BloomSample {
		o.sampled += b.N
		o.passed += pass
		if o.sampled >= j.Cfg.BloomSample &&
			float64(o.passed) >= j.Cfg.BloomDisableRate*float64(o.sampled) {
			j.bloomDisabled.Store(true)
		}
	}
	b.Compact(keep)
	if b.N > 0 {
		o.Next.Process(ctx, b)
	}
}

// Flush implements exec.Operator.
func (o *BloomProbeOp) Flush(ctx *exec.Ctx) { o.Next.Flush(ctx) }

// HasBuildCols reports whether the join kind emits build-side columns.
func (k JoinKind) HasBuildCols() bool {
	switch k {
	case Inner, LeftOuter, RightOuter, LeftSemi, LeftAnti:
		return true
	}
	return false
}

// HasProbeCols reports whether the join kind emits probe-side columns.
func (k JoinKind) HasProbeCols() bool {
	switch k {
	case Inner, LeftOuter, RightOuter, Semi, Anti, Mark:
		return true
	}
	return false
}

// needsMatchedFlags reports whether the kind tracks per-build-row matches.
func (k JoinKind) needsMatchedFlags() bool {
	return k == LeftOuter || k == LeftSemi || k == LeftAnti
}

// OutTypes returns the vector types and widths of the join's output
// batches: build columns, then probe columns, then the mark flag if any.
func (j *RadixJoin) OutTypes() ([]storage.Type, []int) {
	var ts []storage.Type
	var caps []int
	bl, pl := j.BuildSink.Layout, j.ProbeSink.Layout
	if j.Kind.HasBuildCols() {
		for _, c := range j.BuildOut {
			ts = append(ts, bl.Types[c])
			caps = append(caps, bl.Widths[c])
		}
	}
	if j.Kind.HasProbeCols() {
		for _, c := range j.ProbeOut {
			ts = append(ts, pl.Types[c])
			caps = append(caps, pl.Widths[c])
		}
	}
	if j.Kind == Mark {
		ts = append(ts, storage.Bool)
		caps = append(caps, 0)
	}
	return ts, caps
}

// JoinSource returns the source of the join pipeline: one task per final
// partition pair, claimed through the driver's work-stealing cursor so
// skewed partitions balance across workers (Section 4.5, step 8).
func (j *RadixJoin) JoinSource() *PartitionJoinSource {
	return &PartitionJoinSource{J: j}
}

// PartitionJoinSource joins partition pairs and emits result batches
// (Algorithm 2). Per-worker state (hash table, output batch) lives in the
// Ctx-indexed scratch so partitions can be processed without locks.
type PartitionJoinSource struct {
	J       *RadixJoin
	once    sync.Once
	scratch []*joinScratch
	spilled []int // spilled pass-1 partitions, fixed when the join phase starts
}

type joinScratch struct {
	ht      rhTable
	out     *exec.Batch
	matched []bool
}

// Tasks implements exec.Source: one task per resident partition pair plus
// one per spilled pass-1 partition (processed serially under reloadMu).
func (s *PartitionJoinSource) Tasks() int {
	s.spilled = s.J.Spill.spilledList()
	return s.J.BuildSink.Out.NumParts() + len(s.spilled)
}

func (s *PartitionJoinSource) worker(ctx *exec.Ctx) *joinScratch {
	s.once.Do(func() { s.scratch = make([]*joinScratch, ctx.Workers) })
	w := s.scratch[ctx.Worker]
	if w == nil {
		ts, widths := s.J.OutTypes()
		b := exec.NewBatch(ts, nil)
		// Width metadata must survive into downstream materialization.
		for i := range b.Vecs {
			if widths[i] > 0 {
				b.Vecs[i].Width = widths[i]
			}
		}
		w = &joinScratch{out: b}
		s.scratch[ctx.Worker] = w
	}
	return w
}

// Emit implements exec.Source: joins one partition pair. Task ids past the
// resident partitions index into the spilled-partition list; a resident
// task whose pass-1 partition spilled is a no-op (its rows — both sides —
// are joined by the spilled task so each build row is seen exactly once).
func (s *PartitionJoinSource) Emit(ctx *exec.Ctx, pid int, out exec.Operator) {
	faultinject.Hit(JoinEmitSite)
	j := s.J
	nres := j.BuildSink.Out.NumParts()
	if pid >= nres {
		s.emitSpilled(ctx, s.spilled[pid-nres], out)
		return
	}
	if j.Spill.isSpilled(pid & (1<<j.Cfg.Pass1Bits - 1)) {
		return
	}
	bch, pch := j.BuildSink.Out.take(pid), j.ProbeSink.Out.take(pid)
	if thr := j.Adapt.SplitThreshold(j.Cfg.CacheBudget); thr > 0 && chunkBytes(bch) > thr {
		s.emitSplit(ctx, out, pid, bch, pch)
		return
	}
	s.joinChunks(ctx, out, bch, pch)
}

// joinChunks joins one resident partition pair and retires its chunks —
// deferred, so a task that fails part-way still hands them back.
func (s *PartitionJoinSource) joinChunks(ctx *exec.Ctx, out exec.Operator, bch, pch [][]byte) {
	j := s.J
	defer func() {
		j.retire(j.BuildSink.Layout, bch...)
		j.retire(j.ProbeSink.Layout, pch...)
	}()
	bpart := j.compact(bch)
	if len(bch) > 1 {
		bch = append(bch[:0], bpart)
	}
	s.joinPartition(ctx, out, bpart, func(yield func(ppart []byte)) {
		for _, c := range pch {
			yield(c)
		}
	})
}

// compact returns a build partition's rows as one contiguous chunk (the
// hash table indexes rows by position): the partition's only chunk, or a
// pooled copy that replaces — and frees — the chunks. The caller frees it.
func (j *RadixJoin) compact(chunks [][]byte) []byte {
	switch len(chunks) {
	case 0:
		return nil
	case 1:
		return chunks[0]
	}
	n := chunkBytes(chunks)
	buf := j.page(int(n))
	for _, c := range chunks {
		buf = append(buf, c...)
	}
	j.Meter.AddRead(n)
	j.Meter.AddWrite(n)
	j.free(chunks...)
	return buf
}

// page takes a page of capacity >= n from the pool and charges the query's
// governor for what it then holds: the page's capacity. The charge comes
// first, so a failed grant leaves no page in limbo.
func (j *RadixJoin) page(n int) []byte {
	j.Gov.MustGrant(int64(pagepool.Cap(n)))
	return pagepool.Bytes.Get(n)
}

// free returns chunks whose rows nothing references any more to the page
// pool and their capacity to the governor.
func (j *RadixJoin) free(chunks ...[]byte) {
	j.release(chunks)
	putPages(chunks)
}

func (j *RadixJoin) release(chunks [][]byte) {
	for _, c := range chunks {
		j.Gov.Release(int64(cap(c)))
	}
}

// retire frees chunks of layout l that the join phase emitted results from.
// String columns are emitted as slices into the row (Layout.AppendCol), and
// an operator downstream may buffer such a slice until its pipeline flushes,
// long after this partition: chunks with string columns are therefore left
// to the garbage collector, which keeps them while anything points into them
// (letGo).
func (j *RadixJoin) retire(l *Layout, chunks ...[]byte) {
	j.release(chunks)
	letGo(l, chunks...)
}

// Discard returns the pages of a query that unwound (cancelled, failed)
// before the join phase consumed them. No worker of the query may still run.
func (j *RadixJoin) Discard() {
	for _, s := range []*RadixSink{j.BuildSink, j.ProbeSink} {
		for _, w := range s.workers {
			if w == nil {
				continue
			}
			for p := range w.parts {
				putPages(w.parts[p].pages)
			}
		}
		if s.Out != nil {
			for _, chunks := range s.Out.parts {
				putPages(chunks)
			}
			s.Out.parts = nil
		}
		s.workers = nil
	}
}

// joinPartition builds the hash table over one contiguous build partition
// and probes it with the chunks the probe callback yields — the pages of a
// resident partition, or a stream of reloaded spill frames (Algorithm 2
// either way). Chunks must hold whole packed probe rows.
func (s *PartitionJoinSource) joinPartition(ctx *exec.Ctx, out exec.Operator, bpart []byte, probe func(yield func(ppart []byte))) {
	j := s.J
	w := s.worker(ctx)
	bl, pl := j.BuildSink.Layout, j.ProbeSink.Layout
	nb := len(bpart) / bl.Size
	ctx.Meter.AddRead(int64(len(bpart)))

	// Build the per-partition hash table on the fly.
	w.ht.reset(nb)
	for i := 0; i < nb; i++ {
		row := bpart[i*bl.Size:]
		w.ht.insert(bl.Hash(row), int32(i))
	}

	withBuildCols := j.Kind.HasBuildCols()
	withProbeCols := j.Kind.HasProbeCols()
	if j.Kind.needsMatchedFlags() {
		if cap(w.matched) < nb {
			w.matched = make([]bool, nb)
		}
		w.matched = w.matched[:nb]
		for i := range w.matched {
			w.matched[i] = false
		}
	}

	flush := func() {
		if w.out.N > 0 {
			out.Process(ctx, w.out)
			w.out.Reset()
		}
	}
	emitPair := func(brow, prow []byte) {
		v := 0
		if withBuildCols {
			for _, c := range j.BuildOut {
				if brow != nil {
					bl.AppendCol(&w.out.Vecs[v], brow, c)
				} else {
					bl.AppendZeroCol(&w.out.Vecs[v], c)
				}
				v++
			}
		}
		if withProbeCols {
			for _, c := range j.ProbeOut {
				if prow != nil {
					pl.AppendCol(&w.out.Vecs[v], prow, c)
				} else {
					pl.AppendZeroCol(&w.out.Vecs[v], c)
				}
				v++
			}
		}
		w.out.N++
		if w.out.N >= exec.BatchSize {
			flush()
		}
	}
	emitMark := func(prow []byte, hit bool) {
		v := 0
		for _, c := range j.ProbeOut {
			pl.AppendCol(&w.out.Vecs[v], prow, c)
			v++
		}
		flag := int64(0)
		if hit {
			flag = 1
		}
		w.out.Vecs[v].I64 = append(w.out.Vecs[v].I64, flag)
		w.out.N++
		if w.out.N >= exec.BatchSize {
			flush()
		}
	}

	var matches int64
	ht := &w.ht
	entries := ht.entries
	mask := ht.mask
	// Single 8-byte integer keys (every TPC-H and prior-work key) compare
	// with two direct loads instead of the generic per-column path.
	fastKey := bl.KeyI64 && pl.KeyI64 && j.Residual == nil
	bKeyOff := bl.Offs[bl.KeyCols[0]]
	pKeyOff := pl.Offs[pl.KeyCols[0]]
	cancelled := false
	// Prefetch-distance staging (probeStage): hash a group of probe rows
	// and load each one's first hash-table entry before any row's probe
	// walk begins. The staged loads are independent, so the group's random
	// cache misses overlap — software memory-level parallelism in place of
	// a prefetch intrinsic — and the walk then starts from the
	// already-resident staged entry.
	var stHash [probeStage]uint64
	var stSlot [probeStage]uint32
	var stEnt [probeStage]rhEntry
	probe(func(ppart []byte) {
		if cancelled {
			return
		}
		np := len(ppart) / pl.Size
		j.StatProbeRows.Add(int64(np))
		ctx.Meter.AddRead(int64(len(ppart)))
		for base := 0; base < np; base += probeStage {
			g := min(probeStage, np-base)
			for k := 0; k < g; k++ {
				h := pl.Hash(ppart[(base+k)*pl.Size:])
				slot := rhSlot(h) & mask
				stHash[k], stSlot[k] = h, slot
				stEnt[k] = entries[slot]
			}
			for k := 0; k < g; k++ {
				i := base + k
				prow := ppart[i*pl.Size : (i+1)*pl.Size]
				h := stHash[k]
				hit := false
				// Inlined robin-hood probe: the displacement invariant
				// bounds the scan (see rhTable.probe); candidates verify
				// key and residual before counting as matches.
				slot := stSlot[k]
				e := stEnt[k]
				dist := uint32(0)
				for {
					idx := e.idx
					if idx < 0 {
						break
					}
					occDist := (slot - rhSlot(e.hash)) & mask
					if occDist < dist {
						break
					}
					if e.hash == h {
						brow := bpart[int(idx)*bl.Size : (int(idx)+1)*bl.Size]
						var ok bool
						if fastKey {
							ok = binary.LittleEndian.Uint64(brow[bKeyOff:]) ==
								binary.LittleEndian.Uint64(prow[pKeyOff:])
						} else {
							ok = bl.KeyEqual(brow, pl, prow) &&
								(j.Residual == nil || j.Residual(brow, prow))
						}
						if ok {
							hit = true
							matches++
							switch j.Kind {
							case Inner, RightOuter:
								emitPair(brow, prow)
							case LeftOuter:
								w.matched[idx] = true
								emitPair(brow, prow)
							case LeftSemi, LeftAnti:
								w.matched[idx] = true
							case Semi, Anti, Mark:
								// Presence is all that matters.
							}
						}
					}
					slot = (slot + 1) & mask
					dist++
					e = entries[slot]
				}
				switch j.Kind {
				case Semi:
					if hit {
						emitPair(nil, prow)
					}
				case Anti:
					if !hit {
						emitPair(nil, prow)
					}
				case Mark:
					emitMark(prow, hit)
				case RightOuter:
					if !hit {
						emitPair(nil, prow)
					}
				}
			}
			// Poll cancellation roughly every 8K probe rows so a huge
			// skewed partition cannot pin a worker past a deadline.
			if base&^8191 != (base+g)&^8191 && ctx.Err() != nil {
				cancelled = true
				return
			}
		}
	})
	if cancelled {
		return
	}
	switch j.Kind {
	case LeftOuter, LeftAnti:
		for i := 0; i < nb; i++ {
			if !w.matched[i] {
				emitPair(bpart[i*bl.Size:(i+1)*bl.Size], nil)
			}
		}
	case LeftSemi:
		for i := 0; i < nb; i++ {
			if w.matched[i] {
				emitPair(bpart[i*bl.Size:(i+1)*bl.Size], nil)
			}
		}
	}
	j.StatMatches.Add(matches)
	flush()
}
