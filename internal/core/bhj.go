package core

import (
	"sync/atomic"

	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/storage"
)

// BuildSite is the fault-injection site visited once per batch consumed by
// the BHJ build sink.
const BuildSite = "core.bhj.build"

// HashJoin is the buffered non-partitioned hash join (BHJ, Section 4.3): a
// global chaining hash table over the materialized build side, probed
// in-pipeline so the probe side is never written out (Figure 4). The
// directory words carry a 16-bit Bloom tag next to the 48-bit chain head —
// the tagged-pointer semi-join reducer of Leis et al. — so most probe
// misses cost a single load. Probing happens batch-at-a-time (relaxed
// operator fusion): the staged hash vector lets the CPU overlap the cache
// misses of independent lookups, the software-prefetching analog available
// without intrinsics.
type HashJoin struct {
	Kind   JoinKind
	Layout *Layout // build row layout

	// Build-pipeline wiring: batch vector indices.
	BuildCols    []int
	BuildKeyCols []int
	BuildHashCol int

	// Probe-pipeline wiring: batch vector indices.
	ProbeKeyCols []int
	ProbeHashCol int
	ProbeOut     []int

	// BuildOut are layout column indices emitted into the result.
	BuildOut []int

	// Residual, when non-nil, must also hold for a key-equal pair to
	// match; it sees the packed build row and the probe batch row.
	Residual func(brow []byte, b *exec.Batch, i int) bool

	Meter *meter.Meter

	// Gov is the query's memory governor; build arenas, the directory,
	// and the entry array are accounted against it. Nil means ungoverned.
	Gov *govern.Governor

	// Stage is the probe staging group size (Config.ProbeStage); 0 picks
	// the default. Directory words for a group of probe hashes are loaded
	// before any row's chain walk so their cache misses overlap.
	Stage int

	// StatProbeRows and StatMatches count probe tuples and key matches
	// for the per-join analysis (Figures 1, 2 and 13).
	StatProbeRows atomic.Int64
	StatMatches   atomic.Int64

	dir     []uint64
	entries []bhjEntry
	rows    []byte
	n       int
	matched []uint32 // atomic bitset, LeftOuter only
}

type bhjEntry struct {
	hash uint64
	next int32
}

const (
	bhjIdxMask = (1 << 48) - 1
	bhjTagBits = 16
)

// tagBit derives the directory tag from high hash bits, disjoint from the
// directory index bits (low) and the Bloom/radix bits.
func tagBit(h uint64) uint64 { return 1 << (48 + ((h >> 40) & 15)) }

// BuildSink returns the pipeline breaker that materializes the build side.
func (j *HashJoin) BuildSink() *HashBuildSink { return &HashBuildSink{J: j} }

// HashBuildSink materializes build tuples into worker-local arenas and
// assembles the global table at Close.
type HashBuildSink struct {
	J      *HashJoin
	arenas [][]byte
}

// Open implements exec.Sink.
func (s *HashBuildSink) Open(workers int) { s.arenas = make([][]byte, workers) }

// Consume implements exec.Sink.
func (s *HashBuildSink) Consume(ctx *exec.Ctx, b *exec.Batch) {
	j := s.J
	size := j.Layout.Size
	a := s.arenas[ctx.Worker]
	var hcol []int64
	if j.BuildHashCol >= 0 {
		hcol = b.Vecs[j.BuildHashCol].I64
	}
	faultinject.Hit(BuildSite)
	for i := 0; i < b.N; i++ {
		var h uint64
		if hcol != nil {
			h = uint64(hcol[i])
		} else {
			h = HashKeys(b, j.BuildKeyCols, i)
		}
		off := len(a)
		if cap(a) < off+size {
			newCap := maxInt(2*cap(a), 64*size)
			j.Gov.MustGrant(int64(newCap - cap(a)))
			grown := make([]byte, off, newCap)
			copy(grown, a)
			a = grown
		}
		a = a[:off+size]
		j.Layout.PackRow(a[off:], h, b, j.BuildCols, i)
	}
	s.arenas[ctx.Worker] = a
	j.Meter.AddWrite(int64(b.N) * int64(size))
}

// Close implements exec.Sink: concatenates the arenas and builds the
// chaining directory in parallel with CAS inserts; each insert also ORs its
// Bloom tag into the directory word.
func (s *HashBuildSink) Close() {
	j := s.J
	size := j.Layout.Size
	total := 0
	offs := make([]int, len(s.arenas)+1)
	for i, a := range s.arenas {
		offs[i] = total
		total += len(a)
	}
	offs[len(s.arenas)] = total
	j.Gov.MustGrant(int64(total))
	j.rows = make([]byte, total)
	parallelFor(len(s.arenas), len(s.arenas), func(_, i int) {
		copy(j.rows[offs[i]:], s.arenas[i])
	})
	// The worker arenas die here; return their capacity to the governor.
	for _, a := range s.arenas {
		j.Gov.Release(int64(cap(a)))
	}
	j.n = total / size
	j.Meter.AddWrite(int64(total))

	dirSize := 8
	for dirSize < 2*j.n {
		dirSize <<= 1
	}
	j.Gov.MustGrant(int64(dirSize)*8 + int64(j.n)*16)
	j.dir = make([]uint64, dirSize)
	j.entries = make([]bhjEntry, j.n)
	mask := uint64(dirSize - 1)
	chunks := (j.n + storage.MorselSize - 1) / storage.MorselSize
	parallelFor(chunks, maxInt(len(s.arenas), 1), func(_, c int) {
		start := c * storage.MorselSize
		end := minInt(start+storage.MorselSize, j.n)
		for i := start; i < end; i++ {
			h := j.Layout.Hash(j.rows[i*size:])
			j.entries[i].hash = h
			slot := &j.dir[h&mask]
			for {
				old := atomic.LoadUint64(slot)
				j.entries[i].next = int32(old&bhjIdxMask) - 1
				word := (old &^ bhjIdxMask) | tagBit(h) | uint64(i+1)
				if atomic.CompareAndSwapUint64(slot, old, word) {
					break
				}
			}
		}
	})
	j.Meter.AddWrite(int64(dirSize)*8 + int64(j.n)*16)
	if j.Kind.needsMatchedFlags() {
		j.matched = make([]uint32, (j.n+31)/32)
	}
	s.arenas = nil
}

// NumBuildRows reports the build-side cardinality after the build closed.
func (j *HashJoin) NumBuildRows() int { return j.n }

// ProbeOp returns a per-worker probe operator feeding next.
func (j *HashJoin) ProbeOp(next exec.Operator) *HashProbeOp {
	return &HashProbeOp{J: j, Next: next}
}

// HashProbeOp probes the global table batch-at-a-time within the probe
// pipeline; the probe side is never materialized (operator fusion with ROF
// staging).
type HashProbeOp struct {
	J    *HashJoin
	Next exec.Operator
	out  *exec.Batch
}

// initOut lazily shapes the output batch: build columns from the layout,
// probe columns copied from the incoming batch's shape.
func (o *HashProbeOp) initOut(b *exec.Batch) {
	j := o.J
	var ts []storage.Type
	var widths []int
	withBuild := j.Kind == Inner || j.Kind == LeftOuter || j.Kind == RightOuter
	if withBuild {
		for _, c := range j.BuildOut {
			ts = append(ts, j.Layout.Types[c])
			widths = append(widths, j.Layout.Widths[c])
		}
	}
	for _, c := range j.ProbeOut {
		ts = append(ts, b.Vecs[c].T)
		widths = append(widths, b.Vecs[c].Width)
	}
	if j.Kind == Mark {
		ts = append(ts, storage.Bool)
		widths = append(widths, 8)
	}
	o.out = exec.NewBatch(ts, nil)
	for i := range o.out.Vecs {
		o.out.Vecs[i].Width = widths[i]
	}
}

// appendProbe copies probe row i's output columns into the result batch at
// vector offset v0.
func (o *HashProbeOp) appendProbe(b *exec.Batch, i, v0 int) {
	for k, c := range o.J.ProbeOut {
		src := &b.Vecs[c]
		dst := &o.out.Vecs[v0+k]
		switch src.T {
		case storage.Float64:
			dst.F64 = append(dst.F64, src.F64[i])
		case storage.String:
			dst.Str = append(dst.Str, src.Str[i])
		default:
			dst.I64 = append(dst.I64, src.I64[i])
		}
	}
}

// appendZeroProbe pads probe columns for unmatched build rows (LeftOuter
// sweep uses the same shape).
func appendZeroProbe(out *exec.Batch, types []storage.Type, v0 int) {
	for k, t := range types {
		dst := &out.Vecs[v0+k]
		switch t {
		case storage.Float64:
			dst.F64 = append(dst.F64, 0)
		case storage.String:
			dst.Str = append(dst.Str, nil)
		default:
			dst.I64 = append(dst.I64, 0)
		}
	}
}

// Process implements exec.Operator.
func (o *HashProbeOp) Process(ctx *exec.Ctx, b *exec.Batch) {
	j := o.J
	if o.out == nil {
		o.initOut(b)
	}
	withBuild := j.Kind.HasBuildCols() && j.Kind != LeftSemi && j.Kind != LeftAnti
	nbuild := 0
	if withBuild {
		nbuild = len(j.BuildOut)
	}
	size := j.Layout.Size
	mask := uint64(len(j.dir) - 1)
	var hcol []int64
	if j.ProbeHashCol >= 0 {
		hcol = b.Vecs[j.ProbeHashCol].I64
	}
	flush := func() {
		if o.out.N > 0 {
			o.Next.Process(ctx, o.out)
			o.out.Reset()
		}
	}
	emit := func(brow []byte, i int, markHit int) {
		v := 0
		if withBuild {
			for _, c := range j.BuildOut {
				if brow != nil {
					j.Layout.AppendCol(&o.out.Vecs[v], brow, c)
				} else {
					j.Layout.AppendZeroCol(&o.out.Vecs[v], c)
				}
				v++
			}
		}
		o.appendProbe(b, i, nbuild)
		if j.Kind == Mark {
			mv := &o.out.Vecs[nbuild+len(j.ProbeOut)]
			mv.I64 = append(mv.I64, int64(markHit))
		}
		o.out.N++
		if o.out.N >= exec.BatchSize {
			flush()
		}
	}
	j.StatProbeRows.Add(int64(b.N))
	var matches int64
	// Stage the directory words for a group of rows before walking any
	// chains: the group's loads are independent, so their cache misses
	// overlap (Config.ProbeStage, same scheme as the radix join phase).
	stage := j.Stage
	if stage <= 0 {
		stage = 16
	}
	if stage > probeStageMax {
		stage = probeStageMax
	}
	var stH [probeStageMax]uint64
	var stWord [probeStageMax]uint64
	for base := 0; base < b.N; base += stage {
		g := stage
		if base+g > b.N {
			g = b.N - base
		}
		if hcol != nil {
			for k := 0; k < g; k++ {
				h := uint64(hcol[base+k])
				stH[k] = h
				stWord[k] = j.dir[h&mask]
			}
		} else {
			for k := 0; k < g; k++ {
				h := HashKeys(b, j.ProbeKeyCols, base+k)
				stH[k] = h
				stWord[k] = j.dir[h&mask]
			}
		}
		for k := 0; k < g; k++ {
			i := base + k
			h := stH[k]
			word := stWord[k]
			hit := false
			if word&tagBit(h) != 0 {
				idx := int32(word&bhjIdxMask) - 1
				for idx >= 0 {
					e := &j.entries[idx]
					if e.hash == h {
						brow := j.rows[int(idx)*size : (int(idx)+1)*size]
						if j.Layout.KeyEqualBatch(brow, b, j.ProbeKeyCols, i) &&
							(j.Residual == nil || j.Residual(brow, b, i)) {
							hit = true
							matches++
							switch j.Kind {
							case Inner, RightOuter:
								emit(brow, i, 1)
							case LeftOuter:
								markBit(j.matched, idx)
								emit(brow, i, 1)
							case LeftSemi, LeftAnti:
								markBit(j.matched, idx)
							}
						}
					}
					idx = e.next
				}
			}
			switch j.Kind {
			case Semi:
				if hit {
					emit(nil, i, 1)
				}
			case Anti:
				if !hit {
					emit(nil, i, 0)
				}
			case Mark:
				emit(nil, i, boolToInt(hit))
			case RightOuter:
				if !hit {
					emit(nil, i, 0)
				}
			}
		}
	}
	j.StatMatches.Add(matches)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Flush implements exec.Operator.
func (o *HashProbeOp) Flush(ctx *exec.Ctx) {
	if o.out != nil && o.out.N > 0 {
		o.Next.Process(ctx, o.out)
		o.out.Reset()
	}
	o.Next.Flush(ctx)
}

// markBit sets bit idx of an atomic bitset.
func markBit(bits []uint32, idx int32) {
	word := &bits[idx/32]
	mask := uint32(1) << (idx % 32)
	for {
		old := atomic.LoadUint32(word)
		if old&mask != 0 || atomic.CompareAndSwapUint32(word, old, old|mask) {
			return
		}
	}
}

// UnmatchedBuildSource emits the build rows of a BHJ selected by their
// match flag, once the probe phase completed: unmatched rows for LeftOuter
// (padded with zero probe columns) and LeftAnti, matched rows for LeftSemi
// (WantMatched). The plan runs it as an extra pipeline into the same
// consumer after the probe pipeline closes.
type UnmatchedBuildSource struct {
	J *HashJoin
	// ProbeTypes, when non-nil, pads each row with zero probe columns
	// (LeftOuter); LeftSemi/LeftAnti emit build columns only.
	ProbeTypes  []storage.Type
	WantMatched bool
}

// Tasks implements exec.Source.
func (s *UnmatchedBuildSource) Tasks() int {
	return (s.J.n + storage.MorselSize - 1) / storage.MorselSize
}

// Emit implements exec.Source.
func (s *UnmatchedBuildSource) Emit(ctx *exec.Ctx, task int, out exec.Operator) {
	j := s.J
	size := j.Layout.Size
	start := task * storage.MorselSize
	end := minInt(start+storage.MorselSize, j.n)
	var ts []storage.Type
	for _, c := range j.BuildOut {
		ts = append(ts, j.Layout.Types[c])
	}
	ts = append(ts, s.ProbeTypes...)
	b := ctx.ScratchBatch(ts, nil)
	b.Reset()
	for i := start; i < end; i++ {
		matched := j.matched[i/32]&(1<<(i%32)) != 0
		if matched != s.WantMatched {
			continue
		}
		row := j.rows[i*size : (i+1)*size]
		for k, c := range j.BuildOut {
			j.Layout.AppendCol(&b.Vecs[k], row, c)
		}
		if s.ProbeTypes != nil {
			appendZeroProbe(b, s.ProbeTypes, len(j.BuildOut))
		}
		b.N++
		if b.N >= exec.BatchSize {
			out.Process(ctx, b)
			b.Reset()
		}
	}
	if b.N > 0 {
		out.Process(ctx, b)
		b.Reset()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
