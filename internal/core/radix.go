package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"partitionjoin/internal/adapt"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/hashx"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/storage"
)

// Fault-injection sites of the radix partitioning passes.
const (
	Pass1Site = "core.radix.pass1"
	Pass2Site = "core.radix.pass2"
)

// Partitions is one join side after partitioning: for every final partition
// the chunks — pages of whole packed rows — that hold its rows. Partition id
// of a row is (hash & (F1*F2-1)): the first pass splits on the low B1 bits,
// the second on the next B2 bits. The second pass runs only when it would
// partition (B2 > 0) and then leaves one contiguous chunk per partition;
// otherwise a partition is simply the list of its workers' pass-1 pages.
//
// Rows counts every row the sink consumed, including rows evicted to spill
// files; the chunks hold only the resident ones (they are equal unless the
// memory governor forced a spill).
type Partitions struct {
	Layout *Layout
	B1, B2 int
	Rows   int64
	parts  [][][]byte // per partition id; a slot is nil once taken
}

// NumParts returns the final fan-out.
func (p *Partitions) NumParts() int { return 1 << (p.B1 + p.B2) }

// take moves partition pid's chunks to the caller, who owns them from here
// on and frees them (RadixJoin.free) when the partition has been joined.
func (p *Partitions) take(pid int) [][]byte {
	chunks := p.parts[pid]
	p.parts[pid] = nil
	return chunks
}

// pass1Worker is one worker's private partitioning state: a set of
// write-combine buffers and one paged temporary partition per first-pass
// output. No other worker ever touches it (Section 4.5: "all workers are
// writing to either local or dedicated memory areas").
type pass1Worker struct {
	swwcb *swwcbSet
	parts []pagedPart
	cols  [][]int64
	flush func(p int, data []byte)
}

// RadixSink is the pipeline breaker that materializes one join side into
// radix partitions. Consume runs partitioning pass 1 morsel-wise; Close
// decides the second-pass fan-out and, only when that is above one, runs
// the histogram scan and partitioning pass 2 (Figure 6), leaving the final
// partitions in Out.
type RadixSink struct {
	Cfg     Config
	Layout  *Layout
	Cols    []int // batch vector indices to materialize, layout order
	KeyCols []int // batch vector indices of the join key
	HashCol int   // batch vector index of a precomputed hash, or -1
	Side    string
	Join    *RadixJoin
	Meter   *meter.Meter
	// Quiet suppresses the meter phase markers. An adaptively-wired radix
	// sink sits inside (or alongside) another pipeline's phases; letting it
	// push its own would corrupt the phase stack.
	Quiet bool

	workers []*pass1Worker
	Out     *Partitions
}

// beginPhase / endPhase gate the meter phase markers behind Quiet.
func (s *RadixSink) beginPhase(name string) {
	if !s.Quiet {
		s.Meter.BeginPhase(name)
	}
}

func (s *RadixSink) endPhase() {
	if !s.Quiet {
		s.Meter.EndPhase()
	}
}

// gov returns the owning join's memory governor (nil-safe).
func (s *RadixSink) gov() *govern.Governor {
	if s.Join == nil {
		return nil
	}
	return s.Join.Gov
}

// spillState returns the owning join's spill coordinator (nil when the
// query has no spill directory).
func (s *RadixSink) spillState() *JoinSpill {
	if s.Join == nil {
		return nil
	}
	return s.Join.Spill
}

// maybeEvict is the spill rung of the degradation ladder during
// partitioning: called before a worker grants need more bytes, it evicts
// the worker's own partitions' pages to spill runs until the grant fits the
// budget (largest first, preferring partitions that already spilled so the
// spilled set stays small). Without a spill directory it does nothing and
// the governor's account simply runs past the budget as before.
func (s *RadixSink) maybeEvict(w *pass1Worker, need int64) {
	sp := s.spillState()
	if sp == nil {
		return
	}
	gov := s.gov()
	for gov.WouldExceed(need) {
		p1 := s.pickVictim(w)
		if p1 < 0 {
			return
		}
		s.spillPartition(w, p1)
	}
}

// pickVictim chooses the worker-local partition to evict: any partition
// that is already (globally) spilled beats one that is not, then more
// resident bytes beat fewer. Returns -1 when the worker holds no pages.
func (s *RadixSink) pickVictim(w *pass1Worker) int {
	sp := s.spillState()
	best, bestBytes := -1, int64(0)
	bestSpilled := false
	for p1 := range w.parts {
		b := w.parts[p1].rows * int64(s.Layout.Size)
		if b == 0 {
			continue
		}
		spd := sp.isSpilled(p1)
		if (spd && !bestSpilled) || (spd == bestSpilled && b > bestBytes) {
			best, bestBytes, bestSpilled = p1, b, spd
		}
	}
	return best
}

// spillPartition appends one worker's resident pages of pass-1 partition p1
// to the partition's spill run and releases their budget. A write failure
// panics and is converted to a query error by the driver's containment.
func (s *RadixSink) spillPartition(w *pass1Worker, p1 int) {
	part := &w.parts[p1]
	if part.rows == 0 {
		return
	}
	sp := s.spillState()
	f, err := sp.file(p1, s.Side)
	if err != nil {
		panic(fmt.Errorf("core: spill of partition %d (%s): %w", p1, s.Side, err))
	}
	rowSize := s.Layout.Size
	var bytes int64
	for _, pg := range part.pages {
		if len(pg) == 0 {
			continue
		}
		if err := f.Append(pg, len(pg)/rowSize); err != nil {
			panic(fmt.Errorf("core: spill of partition %d (%s): %w", p1, s.Side, err))
		}
		bytes += int64(len(pg))
	}
	sp.recordSpill(p1, s.Side, part.rows, bytes)
	// The page list keeps its backing array for the pages to come.
	s.Join.free(part.pages...)
	clear(part.pages)
	part.pages, part.rows = part.pages[:0], 0
}

// Open implements exec.Sink.
func (s *RadixSink) Open(workers int) {
	s.workers = make([]*pass1Worker, workers)
	s.Out = nil
	s.beginPhase("partition pass 1 (" + s.Side + ")")
}

func (s *RadixSink) worker(ctx *exec.Ctx) *pass1Worker {
	w := s.workers[ctx.Worker]
	if w == nil {
		w = &pass1Worker{
			swwcb: newSWWCBSet(1<<s.Cfg.Pass1Bits, s.swwcbBytes(), s.Layout.Size),
			parts: make([]pagedPart, 1<<s.Cfg.Pass1Bits),
		}
		s.gov().MustGrant(int64(len(w.swwcb.buf)))
		// flush appends a full write-combine buffer to the worker-local
		// partition. The governor is charged, and the spill rung consulted,
		// when the partition takes a page — for the page's capacity, which
		// is what the query then holds — not on every flush (a fault-site
		// check, an atomic add on a line all workers share and a peak CAS
		// per ~16 tuples).
		rowSize, pageBytes := s.Layout.Size, s.Cfg.PageBytes
		gov := s.gov()
		take := func(n int) []byte {
			// Geometric growth reserves ahead of the data; when the budget
			// cannot carry that, grow by first-size pages before evicting.
			if n > pageBytes && gov.WouldExceed(int64(pagepool.Cap(n))) {
				n = pageBytes
			}
			s.maybeEvict(w, int64(pagepool.Cap(n)))
			return s.Join.page(n)
		}
		w.flush = func(p int, data []byte) {
			w.parts[p].write(data, rowSize, pageBytes, take)
		}
		s.workers[ctx.Worker] = w
	}
	return w
}

// swwcbBytes returns the effective write-combine buffer size: wide rows
// bypass buffering (buffer of exactly one row).
func (s *RadixSink) swwcbBytes() int {
	if !s.Layout.Buffered {
		return s.Layout.Size
	}
	return s.Cfg.SWWCBBytes
}

// Consume implements exec.Sink: partitioning pass 1. Each tuple is hashed,
// packed into the write-combine buffer of partition (hash & (F1-1)), and
// streamed to the worker-local paged partition when the buffer fills.
func (s *RadixSink) Consume(ctx *exec.Ctx, b *exec.Batch) {
	faultinject.Hit(Pass1Site)
	if st := s.adaptState(); st != nil {
		s.sampleBatch(st, b)
	}
	w := s.worker(ctx)
	mask := uint64(1)<<s.Cfg.Pass1Bits - 1
	rowSize := s.Layout.Size
	flush := w.flush
	var hcol []int64
	if s.HashCol >= 0 {
		hcol = b.Vecs[s.HashCol].I64
	}
	// Fast path: all-integer layouts with a single 8-byte key — the
	// common case (every TPC-H key, both prior-work workloads) packs in
	// one tight loop without per-column dispatch.
	if s.Layout.AllI64 {
		var keys []int64
		if hcol == nil && s.Layout.KeyI64 {
			kv := &b.Vecs[s.KeyCols[0]]
			if kv.T != storage.Float64 && kv.T != storage.String {
				keys = kv.I64
			}
		}
		if hcol != nil || keys != nil {
			cols := w.cols[:0]
			for _, src := range s.Cols {
				cols = append(cols, b.Vecs[src].I64)
			}
			w.cols = cols
			for i := 0; i < b.N; i++ {
				var h uint64
				if hcol != nil {
					h = uint64(hcol[i])
				} else {
					h = hashx.I64(keys[i])
				}
				p := int(h & mask)
				dst := w.swwcb.slot(p, flush)
				binary.LittleEndian.PutUint64(dst, h)
				off := 8
				for _, cv := range cols {
					binary.LittleEndian.PutUint64(dst[off:], uint64(cv[i]))
					off += 8
				}
			}
			s.Meter.AddWrite(int64(b.N) * int64(rowSize))
			return
		}
	}
	for i := 0; i < b.N; i++ {
		var h uint64
		if hcol != nil {
			h = uint64(hcol[i])
		} else {
			h = HashKeys(b, s.KeyCols, i)
		}
		p := int(h & mask)
		dst := w.swwcb.tryslot(p)
		if dst == nil {
			dst = w.swwcb.flushSlot(p, flush)
		}
		s.Layout.PackRow(dst, h, b, s.Cols, i)
	}
	s.Meter.AddWrite(int64(b.N) * int64(rowSize))
}

// adaptState returns the key-correlation sketch this side feeds: the build
// side of an adaptively-governed join, nil otherwise.
func (s *RadixSink) adaptState() *adapt.JoinState {
	if s.Join == nil || s.Join.Adapt == nil || s != s.Join.BuildSink {
		return nil
	}
	return s.Join.Adapt
}

// sampleBatch feeds a strided sample of the batch's key hashes into the
// sketch. The duplicate hash work is bounded by the stride (~1/64 rows), a
// price the fan-out decision pays for seeing the real distribution.
func (s *RadixSink) sampleBatch(st *adapt.JoinState, b *exec.Batch) {
	stride := st.SampleEvery()
	if stride <= 0 {
		return
	}
	var hcol []int64
	if s.HashCol >= 0 {
		hcol = b.Vecs[s.HashCol].I64
	}
	for i := 0; i < b.N; i += stride {
		if hcol != nil {
			st.Sample(uint64(hcol[i]))
		} else {
			st.Sample(HashKeys(b, s.KeyCols, i))
		}
	}
}

// ConsumePacked ingests already-packed rows — the BHJ build pages during
// an adaptive migration. Every packed row carries its hash at offset 0, so
// the rows re-scatter into pass-1 partitions without touching the key
// columns or re-hashing, which is what makes the mid-build migration a
// memory move rather than a restart.
func (s *RadixSink) ConsumePacked(ctx *exec.Ctx, data []byte) {
	w := s.worker(ctx)
	mask := uint64(1)<<s.Cfg.Pass1Bits - 1
	rowSize := s.Layout.Size
	flush := w.flush
	for off := 0; off+rowSize <= len(data); off += rowSize {
		row := data[off : off+rowSize]
		h := s.Layout.Hash(row)
		p := int(h & mask)
		dst := w.swwcb.tryslot(p)
		if dst == nil {
			dst = w.swwcb.flushSlot(p, flush)
		}
		copy(dst, row)
	}
	s.Meter.AddWrite(int64(len(data)))
}

// Close implements exec.Sink: drains the buffers and lets the build side
// decide the second-pass fan-out from its materialized size. A fan-out of
// one partitions nothing, so the pass-1 pages then become the final
// partitions where they lie; otherwise the histogram scan and pass 2 run.
// The BRJ's build side fills the Bloom filter in whichever pass is its last.
func (s *RadixSink) Close() {
	gov := s.gov()
	// A list of its own: compacting s.workers in place would leave a worker
	// in two slots for Discard, should Close fail part-way.
	live := make([]*pass1Worker, 0, len(s.workers))
	for _, w := range s.workers {
		if w == nil {
			continue
		}
		w.swwcb.drain(w.flush)
		gov.Release(int64(len(w.swwcb.buf)))
		live = append(live, w)
	}

	// Spilled pre-partitions flush their remaining resident pages first so
	// they contribute nothing to the join phase's resident tasks: a
	// partition is joined either fully resident or fully through its spill
	// run, never half and half (a split would lose matches).
	sp := s.spillState()
	if sp != nil {
		for _, p1 := range sp.spilledList() {
			for _, w := range live {
				s.spillPartition(w, p1)
			}
		}
	}
	// Out from the start, so Discard finds the partitions written so far
	// should Close fail part-way.
	out := &Partitions{Layout: s.Layout, B1: s.Cfg.Pass1Bits}
	s.Out = out
	for _, w := range live {
		for p := range w.parts {
			out.Rows += w.parts[p].rows
		}
	}
	out.B2 = s.Join.decideBits(s, out.Rows, maxInt(len(live), 1))
	if out.B2 == 0 {
		s.gather(out, live)
		s.endPhase()
	} else {
		s.endPhase()
		s.pass2(out, live)
	}
	if sp != nil {
		out.Rows += sp.spilledRowsTotal(s.Side)
	}
	s.workers = nil
}

// gather makes every pre-partition's worker pages the final partition where
// they lie. The BRJ's filter is filled from the stored hashes; its block
// index shares the partition's low bits, so tasks touch disjoint blocks.
func (s *RadixSink) gather(out *Partitions, live []*pass1Worker) {
	out.parts = make([][][]byte, out.NumParts())
	for p1 := range out.parts {
		for _, w := range live {
			out.parts[p1] = append(out.parts[p1], w.parts[p1].pages...)
			w.parts[p1] = pagedPart{}
		}
	}
	if filter := s.Join.buildFilter(s, out.Rows); filter != nil {
		rowSize := s.Layout.Size
		parallelFor(len(out.parts), len(live), func(_, p1 int) {
			for _, pg := range out.parts[p1] {
				for off := 0; off < len(pg); off += rowSize {
					filter.Insert(s.Layout.Hash(pg[off:]))
				}
			}
		})
		s.Meter.AddRead(out.Rows * 8)
	}
}

// pass2 splits every pre-partition on the next B2 hash bits (Figure 6): the
// histogram scan sizes one chunk per final partition, then one task per
// pre-partition scatters its pages into its chunks and frees the pages;
// every final partition is written by exactly one task, without locks.
func (s *RadixSink) pass2(out *Partitions, live []*pass1Worker) {
	gov, sp := s.gov(), s.spillState()
	f1, f2 := 1<<out.B1, 1<<out.B2
	rowSize := s.Layout.Size
	shift := uint(out.B1)
	maskF2 := uint64(f2 - 1)
	workers := maxInt(len(live), 1)
	// Per-goroutine scratch: write-combine buffers, and the chunks (for the
	// scan, counters) of the pre-partition in work — kept out of the shared
	// arrays until a task ends, so workers stay off each other's lines.
	type scratch struct {
		sw    *swwcbSet
		cur   [][]byte
		flush func(p2 int, data []byte) // appends to cur[p2]
		hist  []int64
	}
	local := make([]scratch, workers)

	s.beginPhase("scan (" + s.Side + ")")
	hist := make([]int64, f1*f2)
	parallelFor(f1, workers, func(wk, p1 int) {
		if local[wk].hist == nil {
			local[wk].hist = make([]int64, f2)
		}
		h := local[wk].hist
		clear(h)
		for _, w := range live {
			for _, pg := range w.parts[p1].pages {
				for off := 0; off < len(pg); off += rowSize {
					h[(s.Layout.Hash(pg[off:])>>shift)&maskF2]++
				}
			}
		}
		copy(hist[p1*f2:], h)
	})
	s.Meter.AddRead(out.Rows * 8)
	s.endPhase()

	// Close-time eviction: a pass-2 task holds a pre-partition's pages and
	// their scattered copy at once. Evict the largest resident
	// pre-partitions until one such copy per worker fits the budget.
	bytesP1 := make([]int64, f1)
	for p1 := range bytesP1 {
		for _, w := range live {
			bytesP1[p1] += w.parts[p1].rows * int64(rowSize)
		}
	}
	for sp != nil {
		victim := 0
		for p1, b := range bytesP1 {
			if b > bytesP1[victim] {
				victim = p1
			}
		}
		if bytesP1[victim] == 0 || !gov.WouldExceed(int64(workers)*bytesP1[victim]) {
			break
		}
		for _, w := range live {
			s.spillPartition(w, victim)
		}
		out.Rows -= bytesP1[victim] / int64(rowSize)
		bytesP1[victim] = 0
		clear(hist[victim*f2 : (victim+1)*f2])
	}

	s.beginPhase("partition pass 2 (" + s.Side + ")")
	filter := s.Join.buildFilter(s, out.Rows)
	backing := make([][]byte, f1*f2)
	out.parts = make([][][]byte, f1*f2)
	parallelFor(f1, workers, func(wk, p1 int) {
		faultinject.Hit(Pass2Site)
		l := &local[wk]
		if l.sw == nil {
			cur := make([][]byte, f2)
			l.sw, l.cur = newSWWCBSet(f2, s.swwcbBytes(), rowSize), cur
			l.flush = func(p2 int, data []byte) { cur[p2] = append(cur[p2], data...) }
			gov.MustGrant(int64(len(l.sw.buf)))
		}
		sw, cur, flush := l.sw, l.cur, l.flush
		for p2 := range cur {
			cur[p2] = nil
			if n := int(hist[p1*f2+p2]) * rowSize; n > 0 {
				// In out as soon as it is taken, so Discard finds it
				// should the query fail part-way.
				pid := p1 | p2<<shift
				cur[p2] = s.Join.page(n)
				backing[pid] = cur[p2]
				out.parts[pid] = backing[pid : pid+1 : pid+1]
			}
		}
		for _, w := range live {
			pages := w.parts[p1].pages
			for _, pg := range pages {
				for off := 0; off < len(pg); off += rowSize {
					row := pg[off : off+rowSize]
					hv := s.Layout.Hash(row)
					if filter != nil {
						filter.Insert(hv)
					}
					p2 := int((hv >> shift) & maskF2)
					dst := sw.tryslot(p2)
					if dst == nil {
						dst = sw.flushSlot(p2, flush)
					}
					copy(dst, row)
				}
			}
			// Pages of this pre-partition are dead after the scan.
			w.parts[p1] = pagedPart{}
			s.Join.free(pages...)
		}
		sw.drain(flush)
		for p2, chunk := range cur {
			if len(chunk) > 0 {
				backing[p1|p2<<shift] = chunk
			}
		}
	})
	s.Meter.AddRead(out.Rows * int64(rowSize))
	s.Meter.AddWrite(out.Rows * int64(rowSize))
	s.endPhase()
	for i := range local {
		if sw := local[i].sw; sw != nil {
			gov.Release(int64(len(sw.buf)))
		}
	}
}

// totalBitsFor sizes the fan-out so one build partition fits the cache
// budget: ceil(log2(buildBytes / CacheBudget)), floored and capped.
func totalBitsFor(cfg Config, buildBytes int64) int {
	total := cfg.MinTotalBits
	if buildBytes > int64(cfg.CacheBudget) {
		need := (buildBytes + int64(cfg.CacheBudget) - 1) / int64(cfg.CacheBudget)
		b := bits.Len64(uint64(need - 1))
		if b > total {
			total = b
		}
	}
	if maxTotal := cfg.Pass1Bits + cfg.MaxPass2Bits; total > maxTotal {
		total = maxTotal
	}
	return total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
