package core

import (
	"math/bits"
	"sync/atomic"

	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/storage"
)

// BuildSite is the fault-injection site visited once per batch consumed by
// the BHJ build sink.
const BuildSite = "core.bhj.build"

// HashJoin is the buffered non-partitioned hash join (BHJ, Section 4.3): a
// global chaining hash table over the materialized build side, probed
// in-pipeline so the probe side is never written out (Figure 4). The build
// packs each tuple once, into pooled pages, and the table is built over those
// pages in place: a directory word per bucket and a chain link per row slot.
// The directory words carry a 16-bit Bloom tag next to the 48-bit chain head
// — the tagged-pointer semi-join reducer of Leis et al. — so most probe
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

	// Gov is the query's memory governor; build pages, the directory and
	// the chain links are accounted against it. Nil means ungoverned.
	Gov *govern.Governor

	// StatProbeRows and StatMatches count probe tuples and key matches
	// for the per-join analysis (Figures 1, 2 and 13).
	StatProbeRows atomic.Int64
	StatMatches   atomic.Int64

	// A row's slot is page<<shift | row-in-page: every build page holds
	// 1<<shift rows (the last page of each worker may hold fewer).
	shift  uint
	wpages [][][]byte   // per-worker build pages, until Close
	pages  [][]byte     // all build pages, from Close
	taken  atomic.Int64 // build pages taken, for AdaptiveJoin's projection
	dir    []uint64
	next   []int32 // chain link per slot, -1 ends a chain
	n      int
	// matched is an atomic bitset over slots, LeftOuter/LeftSemi/LeftAnti.
	matched []uint32
}

const (
	bhjIdxMask = (1 << 48) - 1
	bhjTagBits = 16
)

// tagBit derives the directory tag from high hash bits, disjoint from the
// directory index bits (low) and the Bloom/radix bits.
func tagBit(h uint64) uint64 { return 1 << (48 + ((h >> 40) & 15)) }

// pageShift is log2 of the rows a build page of rowSize-byte rows holds.
func pageShift(rowSize int) uint {
	if rowSize >= pageBytes {
		return 0
	}
	return uint(bits.Len(uint(pageBytes/rowSize)) - 1)
}

// dirWords is the directory size for n build rows: a power of two, at least
// twice n.
func dirWords(n int) int {
	d := 8
	for d < 2*n {
		d <<= 1
	}
	return d
}

// tableBytes is what Close grants for a table over n rows in the given
// number of build pages: the directory and the chain links, at the
// capacities the pools hand out. The pages are charged as they are taken.
func (j *HashJoin) tableBytes(n, pages int) int64 {
	return int64(pagepool.Cap(dirWords(n)))*8 + int64(pagepool.Cap(pages<<j.shift))*4
}

// page takes a build page from the pool and charges the query's governor for
// its capacity.
func (j *HashJoin) page() []byte {
	n := j.Layout.Size << j.shift
	j.Gov.MustGrant(int64(pagepool.Cap(n)))
	j.taken.Add(1)
	return pagepool.Bytes.Get(n)
}

// Release returns the table's pooled memory once the query is over, however
// it ended: the directory and the links always, the build pages only when
// the layout has no string column. Emitted strings are slices into the
// rows, so pages with strings are forgotten instead: the garbage collector
// keeps them for as long as a result holds them. No worker of the query may
// still run.
func (j *HashJoin) Release() {
	pagepool.Words.Put(j.dir)
	pagepool.Links.Put(j.next)
	for _, pgs := range j.wpages {
		letGo(j.Layout, pgs...)
	}
	letGo(j.Layout, j.pages...)
	j.dir, j.next, j.wpages, j.pages = nil, nil, nil, nil
}

// BuildSink returns the pipeline breaker that materializes the build side.
func (j *HashJoin) BuildSink() *HashBuildSink { return &HashBuildSink{J: j} }

// HashBuildSink packs build tuples into worker-local page lists and builds
// the global table over those pages at Close.
type HashBuildSink struct {
	J *HashJoin
}

// Open implements exec.Sink.
func (s *HashBuildSink) Open(workers int) {
	j := s.J
	j.shift = pageShift(j.Layout.Size)
	j.wpages = make([][][]byte, workers)
}

// Consume implements exec.Sink.
func (s *HashBuildSink) Consume(ctx *exec.Ctx, b *exec.Batch) {
	j := s.J
	size := j.Layout.Size
	full := size << j.shift
	pages := &j.wpages[ctx.Worker]
	var hcol []int64
	if j.BuildHashCol >= 0 {
		hcol = b.Vecs[j.BuildHashCol].I64
	}
	faultinject.Hit(BuildSite)
	for i := 0; i < b.N; {
		if n := len(*pages); n == 0 || len((*pages)[n-1]) == full {
			*pages = append(*pages, j.page())
		}
		last := len(*pages) - 1
		pg := (*pages)[last]
		end := min(b.N, i+(full-len(pg))/size)
		for ; i < end; i++ {
			var h uint64
			if hcol != nil {
				h = uint64(hcol[i])
			} else {
				h = HashKeys(b, j.BuildKeyCols, i)
			}
			off := len(pg)
			pg = pg[:off+size]
			j.Layout.PackRow(pg[off:], h, b, j.BuildCols, i)
		}
		(*pages)[last] = pg
	}
	j.Meter.AddWrite(int64(b.N) * int64(size))
}

// Close implements exec.Sink: gathers the workers' pages into one list and
// builds the chaining directory over them in parallel with CAS inserts, one
// task per page; each insert also ORs its Bloom tag into the directory word.
// The rows stay where Consume packed them.
func (s *HashBuildSink) Close() {
	j := s.J
	size := j.Layout.Size
	for w, pgs := range j.wpages {
		j.pages = append(j.pages, pgs...)
		j.wpages[w] = nil
		for _, pg := range pgs {
			j.n += len(pg) / size
		}
	}
	nd, slots := dirWords(j.n), len(j.pages)<<j.shift
	j.dir = pagepool.Words.Get(nd)[:nd]
	j.next = pagepool.Links.Get(slots)[:slots]
	j.Gov.MustGrant(j.tableBytes(j.n, len(j.pages)))
	clear(j.dir)
	mask := uint64(nd - 1)
	parallelFor(len(j.pages), max(len(j.wpages), 1), func(_, p int) {
		pg := j.pages[p]
		slot := p << j.shift
		for off := 0; off < len(pg); off += size {
			h := j.Layout.Hash(pg[off:])
			word := &j.dir[h&mask]
			for {
				old := atomic.LoadUint64(word)
				j.next[slot] = int32(old&bhjIdxMask) - 1
				if atomic.CompareAndSwapUint64(word, old, (old&^bhjIdxMask)|tagBit(h)|uint64(slot+1)) {
					break
				}
			}
			slot++
		}
	})
	j.Meter.AddWrite(int64(nd)*8 + int64(j.n)*4)
	if j.Kind.needsMatchedFlags() {
		j.matched = make([]uint32, (slots+31)/32)
	}
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
	pages, next, shift := j.pages, j.next, j.shift
	rowMask := int32(1)<<shift - 1
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
	// overlap (probeStage, same scheme as the radix join phase).
	var stH [probeStage]uint64
	var stWord [probeStage]uint64
	for base := 0; base < b.N; base += probeStage {
		g := min(probeStage, b.N-base)
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
					off := int(idx&rowMask) * size
					brow := pages[idx>>shift][off : off+size]
					if j.Layout.Hash(brow) == h &&
						j.Layout.KeyEqualBatch(brow, b, j.ProbeKeyCols, i) &&
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
					idx = next[idx]
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

// Tasks implements exec.Source: one task per build page.
func (s *UnmatchedBuildSource) Tasks() int { return len(s.J.pages) }

// Emit implements exec.Source.
func (s *UnmatchedBuildSource) Emit(ctx *exec.Ctx, task int, out exec.Operator) {
	j := s.J
	size := j.Layout.Size
	var ts []storage.Type
	for _, c := range j.BuildOut {
		ts = append(ts, j.Layout.Types[c])
	}
	ts = append(ts, s.ProbeTypes...)
	b := ctx.ScratchBatch(ts, nil)
	b.Reset()
	pg := j.pages[task]
	slot := task << j.shift
	for off := 0; off < len(pg); off, slot = off+size, slot+1 {
		matched := j.matched[slot/32]&(1<<(slot%32)) != 0
		if matched != s.WantMatched {
			continue
		}
		row := pg[off : off+size]
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
