package core

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/spill"
)

// ReloadSite is the fault-injection site visited once per spilled partition
// (or recursion sub-partition) processed in the join phase.
const ReloadSite = "core.spill.reload"

const (
	// spillSubBits is the fan-out (in bits) of one recursive re-partition
	// step applied to a spilled partition that alone exceeds the budget.
	spillSubBits = 4
	// spillMaxDepth caps recursion: past it the partition is joined in
	// memory regardless (a single over-weight key cannot be split by more
	// hash bits, and refusing would trade a slow correct answer for none).
	spillMaxDepth = 3
	// spillStageBytes is the per-sub-partition staging buffer of a
	// recursive re-partition pass.
	spillStageBytes = 32 << 10
)

// SpillStats summarizes what a join's spill escape hatch did; aggregated
// into plan.ExecResult so callers can see how a run completed.
type SpillStats struct {
	// Partitions is the number of distinct pass-1 partitions spilled.
	Partitions int
	// SpilledBytes / ReloadedBytes are payload bytes written to and read
	// back from spill files (recursion re-writes count again).
	SpilledBytes  int64
	ReloadedBytes int64
	// Recursed counts recursive re-partition passes (skew overflow).
	Recursed int
	// MaxReloadBytes is the largest single working-set grant of the
	// reload path: the bound by which governor peak may exceed the budget.
	MaxReloadBytes int64
}

// Add accumulates other into s (per-join stats into per-query stats).
func (s *SpillStats) Add(o SpillStats) {
	s.Partitions += o.Partitions
	s.SpilledBytes += o.SpilledBytes
	s.ReloadedBytes += o.ReloadedBytes
	s.Recursed += o.Recursed
	if o.MaxReloadBytes > s.MaxReloadBytes {
		s.MaxReloadBytes = o.MaxReloadBytes
	}
}

// JoinSpill coordinates the grace-hash escape hatch of one radix join: the
// shared set of spilled pass-1 partitions, their run files in the query's
// spill directory, and the serialized reload path of the join phase. Both
// sides of a partition id spill together (the probe sink routes every
// partition the build side spilled to disk too), so the join stays
// partition-local. A nil *JoinSpill disables spilling.
type JoinSpill struct {
	dir    *spill.Dir
	gov    *govern.Governor
	meter  *meter.Meter
	joinID int

	mu      sync.Mutex
	spilled map[int]bool // pass-1 partition ids, both sides
	runs    map[sideRun]*spillRun
	stats   SpillStats

	// reloadMu serializes spilled-partition processing in the join phase
	// so at most one partition's reload working set is in memory at a
	// time — the "budget plus one reload" peak guarantee.
	reloadMu sync.Mutex
}

// NewJoinSpill wires the spill escape hatch for one join. dir is the
// query-scoped spill directory (owned and cleaned up by the executor).
func NewJoinSpill(dir *spill.Dir, gov *govern.Governor, m *meter.Meter, joinID int) *JoinSpill {
	return &JoinSpill{
		dir: dir, gov: gov, meter: m, joinID: joinID,
		spilled: make(map[int]bool), runs: make(map[sideRun]*spillRun),
	}
}

// sideRun names one side of a pass-1 partition.
type sideRun struct {
	p1   int
	side string
}

// spillRun is the depth-0 run of one side of a partition and the rows it
// holds.
type spillRun struct {
	file *spill.File
	rows int64
}

// Stats returns a snapshot of the spill counters.
func (sp *JoinSpill) Stats() SpillStats {
	if sp == nil {
		return SpillStats{}
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.stats
}

// isSpilled reports whether pass-1 partition p1 has spilled (either side).
func (sp *JoinSpill) isSpilled(p1 int) bool {
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.spilled[p1]
}

// spilledList returns the spilled pass-1 partition ids in ascending order,
// the deterministic task list of the join phase's spilled pass.
func (sp *JoinSpill) spilledList() []int {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]int, 0, len(sp.spilled))
	for p1 := range sp.spilled {
		out = append(out, p1)
	}
	// Insertion sort: the list is small (≤ 2^Pass1Bits).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// runName names a spill run file: join id, partition, side, and for
// recursion sub-runs the depth and sub index.
func (sp *JoinSpill) runName(p1 int, side string, depth, sub int) string {
	if depth == 0 {
		return fmt.Sprintf("j%d-p%03d.%s", sp.joinID, p1, side)
	}
	return fmt.Sprintf("j%d-p%03d-d%d-%02d.%s", sp.joinID, p1, depth, sub, side)
}

// file returns the run file for (p1, side) at recursion depth 0, creating
// it on first use.
func (sp *JoinSpill) file(p1 int, side string) (*spill.File, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	k := sideRun{p1, side}
	if r := sp.runs[k]; r != nil {
		return r.file, nil
	}
	f, err := sp.dir.File(sp.runName(p1, side, 0, 0))
	if err != nil {
		return nil, err
	}
	sp.runs[k] = &spillRun{file: f}
	return f, nil
}

// lookup returns the depth-0 run file, nil when that side of the partition
// never spilled any rows.
func (sp *JoinSpill) lookup(p1 int, side string) *spill.File {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if r := sp.runs[sideRun{p1, side}]; r != nil {
		return r.file
	}
	return nil
}

// recordSpill accounts one eviction of a partition's pages to disk and
// marks the partition spilled. The first spill of each partition id is
// noted in the governor's degradation log.
func (sp *JoinSpill) recordSpill(p1 int, side string, rows, bytes int64) {
	sp.meter.AddSpillWrite(bytes)
	sp.mu.Lock()
	first := !sp.spilled[p1]
	sp.spilled[p1] = true
	if first {
		sp.stats.Partitions++
	}
	sp.runs[sideRun{p1, side}].rows += rows
	sp.stats.SpilledBytes += bytes
	sp.mu.Unlock()
	if first {
		sp.gov.Note("join %d: partition %d spilled to disk (%s side first, %d B)",
			sp.joinID, p1, side, bytes)
	}
}

// spilledRowsTotal returns all spilled rows of one side across partitions.
func (sp *JoinSpill) spilledRowsTotal(side string) int64 {
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var n int64
	for p1 := range sp.spilled {
		if r := sp.runs[sideRun{p1, side}]; r != nil {
			n += r.rows
		}
	}
	return n
}

// grantReload accounts a reload working set and tracks the peak-overshoot
// bound reported in SpillStats.
func (sp *JoinSpill) grantReload(n int64) {
	sp.gov.MustGrant(n)
	sp.mu.Lock()
	if n > sp.stats.MaxReloadBytes {
		sp.stats.MaxReloadBytes = n
	}
	sp.mu.Unlock()
}

// spillSrc is one side of a spilled partition pair: an on-disk run (nil
// when that side never spilled) plus any resident final sub-partitions
// (non-empty when only the other side of the pair spilled).
type spillSrc struct {
	file     *spill.File
	resident [][]byte
	rowSize  int
	// copyFrames makes each hand out every reloaded frame in a buffer of its
	// own, which the garbage collector owns. Required on a probe side whose
	// layout carries string columns: probe rows stream straight into the
	// partition join, which emits string columns as zero-copy slices into
	// the chunk — and each otherwise reads every frame into one pooled
	// buffer, so an aliased string would be overwritten by the next frame.
	// Numeric columns are decoded by value and build sides are gathered
	// into a reload buffer (gather), so neither needs this.
	copyFrames bool
}

// bytes returns the side's total payload bytes.
func (s *spillSrc) bytes() int64 {
	var n int64
	if s.file != nil {
		n = s.file.Bytes()
	}
	return n + chunkBytes(s.resident)
}

// rows returns the side's total row count.
func (s *spillSrc) rows() int64 {
	var n int64
	if s.file != nil {
		n = s.file.Rows()
	}
	for _, part := range s.resident {
		n += int64(len(part) / s.rowSize)
	}
	return n
}

// maxChunk returns the largest contiguous chunk each will yield.
func (s *spillSrc) maxChunk() int64 {
	var n int64
	if s.file != nil {
		n = int64(s.file.MaxFrame())
	}
	for _, part := range s.resident {
		if int64(len(part)) > n {
			n = int64(len(part))
		}
	}
	return n
}

// each yields the side's rows in chunks of whole packed rows: resident
// sub-partitions first, then spill frames, each read into one pooled buffer
// of the run's largest frame (or into a buffer of its own, copyFrames), so
// a chunk is valid until fn returns. A read failure (short read, checksum
// mismatch) is returned verbatim — it already names the file and frame.
// Iteration stops early when the query context is cancelled.
func (s *spillSrc) each(ctx *exec.Ctx, fn func(chunk []byte)) error {
	for _, part := range s.resident {
		if ctx.Err() != nil {
			return nil
		}
		if len(part) > 0 {
			fn(part)
		}
	}
	if s.file == nil {
		return nil
	}
	var frame []byte
	if !s.copyFrames {
		frame = pagepool.Bytes.Get(s.file.MaxFrame())
		defer pagepool.Bytes.Put(frame)
	}
	rd := s.file.NewReader()
	for ctx.Err() == nil {
		chunk, err := rd.AppendNext(frame)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(chunk) > 0 {
			fn(chunk)
		}
	}
	return nil
}

// gather appends all of the side's rows to buf, which must have room for
// bytes(): resident sub-partitions are copied, spill frames are read
// straight into buf, so each byte lands once. Errors are each's.
func (s *spillSrc) gather(ctx *exec.Ctx, buf []byte) ([]byte, error) {
	for _, part := range s.resident {
		buf = append(buf, part...)
	}
	if s.file == nil {
		return buf, nil
	}
	rd := s.file.NewReader()
	for ctx.Err() == nil {
		var err error
		if buf, err = rd.AppendNext(buf); errors.Is(err, io.EOF) {
			return buf, nil
		} else if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// residentSubParts takes the chunks of the resident final sub-partitions of
// pass-1 partition p1 (pids congruent to p1 modulo the pass-1 fan-out).
func residentSubParts(out *Partitions, p1 int) [][]byte {
	var chunks [][]byte
	f1 := 1 << out.B1
	for pid := p1; pid < out.NumParts(); pid += f1 {
		chunks = append(chunks, out.take(pid)...)
	}
	return chunks
}

// rhBytes estimates the robin-hood table footprint for n build rows: the
// entry array is sized to the next power of two above n/0.7, 16 B each.
func rhBytes(n int64) int64 {
	need := int64(8)
	for need*7 < n*10 {
		need <<= 1
	}
	return need * 16
}

// emitSpilled joins one spilled pass-1 partition pair. Spilled pairs are
// processed one at a time (reloadMu) so the governor's peak stays within
// the budget plus a single reload working set.
func (s *PartitionJoinSource) emitSpilled(ctx *exec.Ctx, p1 int, out exec.Operator) {
	j := s.J
	sp := j.Spill
	sp.reloadMu.Lock()
	defer sp.reloadMu.Unlock()
	if ctx.Err() != nil {
		return
	}
	bsrc := &spillSrc{
		file:     sp.lookup(p1, j.BuildSink.Side),
		resident: residentSubParts(j.BuildSink.Out, p1),
		rowSize:  j.BuildSink.Layout.Size,
	}
	psrc := &spillSrc{
		file:       sp.lookup(p1, j.ProbeSink.Side),
		resident:   residentSubParts(j.ProbeSink.Out, p1),
		rowSize:    j.ProbeSink.Layout.Size,
		copyFrames: j.ProbeSink.Layout.HasStringCols(),
	}
	// Build chunks were copied into the reload buffer; probe chunks were
	// joined where they lie. Deferred, so a pair that fails part-way still
	// hands its chunks back.
	defer func() {
		j.free(bsrc.resident...)
		j.retire(j.ProbeSink.Layout, psrc.resident...)
	}()
	s.joinSpilledPair(ctx, out, p1, 0, bsrc, psrc)
}

// joinSpilledPair processes one (sub-)partition pair: reload-and-join when
// the build side fits the budget, recursive re-partition when it alone
// exceeds it (skew overflow), capped at spillMaxDepth.
func (s *PartitionJoinSource) joinSpilledPair(ctx *exec.Ctx, out exec.Operator, p1, depth int, bsrc, psrc *spillSrc) {
	if ctx.Err() != nil {
		return
	}
	faultinject.Hit(ReloadSite)
	j := s.J
	sp := j.Spill
	bBytes := bsrc.bytes()
	if bBytes == 0 && psrc.bytes() == 0 {
		return
	}
	working := bBytes + rhBytes(bsrc.rows()) + psrc.maxChunk()
	if depth < spillMaxDepth && sp.gov.Budgeted() && working > sp.gov.Budget() {
		s.recurseSpilled(ctx, out, p1, depth, bsrc, psrc)
		return
	}
	if depth >= spillMaxDepth && sp.gov.Budgeted() && working > sp.gov.Budget() {
		sp.gov.Note("join %d: partition %d depth %d still exceeds budget (%d B); joining in memory (skewed key)",
			sp.joinID, p1, depth, working)
	}

	sp.grantReload(working)
	defer sp.gov.Release(working)

	// Reload the build side into one contiguous pooled buffer, which the
	// join's results may point into as the partition pages they replace.
	buf := pagepool.Bytes.Get(int(bBytes))
	defer letGo(j.BuildSink.Layout, buf)
	buf, err := bsrc.gather(ctx, buf)
	if err != nil {
		panic(fmt.Errorf("core: reload of join %d partition %d build side: %w", sp.joinID, p1, err))
	}
	if ctx.Err() != nil {
		return
	}
	sp.meter.AddSpillRead(fileBytes(bsrc.file))
	sp.mu.Lock()
	sp.stats.ReloadedBytes += bBytes
	sp.mu.Unlock()

	// Stream the probe side through the partition join one chunk at a
	// time; probe frames never need to be resident together.
	var probeErr error
	s.joinPartition(ctx, out, buf, func(yield func(ppart []byte)) {
		probeErr = psrc.each(ctx, yield)
	})
	if probeErr != nil {
		panic(fmt.Errorf("core: reload of join %d partition %d probe side: %w", sp.joinID, p1, probeErr))
	}
	sp.meter.AddSpillRead(fileBytes(psrc.file))
	sp.mu.Lock()
	sp.stats.ReloadedBytes += psrc.bytes()
	sp.mu.Unlock()
	if depth == 0 {
		sp.gov.Note("join %d: partition %d reloaded from spill and joined (%d B build, %d B probe)",
			sp.joinID, p1, bBytes, psrc.bytes())
	}
}

func fileBytes(f *spill.File) int64 {
	if f == nil {
		return 0
	}
	return f.Bytes()
}

// recurseSpilled re-partitions both sides of an over-budget spilled
// partition on the next spillSubBits hash bits, writing sub-runs to disk,
// then joins each sub-pair under the budget. The parent runs are deleted
// once scattered.
func (s *PartitionJoinSource) recurseSpilled(ctx *exec.Ctx, out exec.Operator, p1, depth int, bsrc, psrc *spillSrc) {
	j := s.J
	sp := j.Spill
	sp.mu.Lock()
	sp.stats.Recursed++
	sp.mu.Unlock()
	sp.gov.Note("join %d: partition %d build side (%d B) exceeds budget alone; re-partitioning at depth %d",
		sp.joinID, p1, bsrc.bytes(), depth+1)

	nsub := 1 << spillSubBits
	shift := uint(j.Cfg.Pass1Bits + depth*spillSubBits)
	scatter := func(src *spillSrc, side string, layout *Layout) []*spill.File {
		files := make([]*spill.File, nsub)
		stage := make([][]byte, nsub)
		stageCap := spillStageBytes / layout.Size * layout.Size
		if stageCap < layout.Size {
			stageCap = layout.Size
		}
		sp.grantReload(int64(nsub * stageCap))
		defer sp.gov.Release(int64(nsub * stageCap))
		defer func() {
			for _, pg := range stage {
				pagepool.Bytes.Put(pg)
			}
		}()
		flush := func(sub int) {
			if len(stage[sub]) == 0 {
				return
			}
			f := files[sub]
			if f == nil {
				var err error
				f, err = sp.dir.File(sp.runName(p1, side, depth+1, sub))
				if err != nil {
					panic(fmt.Errorf("core: re-partition of join %d partition %d: %w", sp.joinID, p1, err))
				}
				files[sub] = f
			}
			if err := f.Append(stage[sub], len(stage[sub])/layout.Size); err != nil {
				panic(fmt.Errorf("core: re-partition of join %d partition %d: %w", sp.joinID, p1, err))
			}
			sp.meter.AddSpillWrite(int64(len(stage[sub])))
			stage[sub] = stage[sub][:0]
		}
		err := src.each(ctx, func(chunk []byte) {
			for off := 0; off < len(chunk); off += layout.Size {
				row := chunk[off : off+layout.Size]
				sub := int(layout.Hash(row)>>shift) & (nsub - 1)
				if stage[sub] == nil {
					stage[sub] = pagepool.Bytes.Get(stageCap)
				}
				stage[sub] = append(stage[sub], row...)
				if len(stage[sub]) >= stageCap {
					flush(sub)
				}
			}
		})
		if err != nil {
			panic(fmt.Errorf("core: re-partition of join %d partition %d (%s): %w", sp.joinID, p1, side, err))
		}
		for sub := 0; sub < nsub; sub++ {
			flush(sub)
		}
		return files
	}

	bsub := scatter(bsrc, j.BuildSink.Side, j.BuildSink.Layout)
	if ctx.Err() != nil {
		return
	}
	psub := scatter(psrc, j.ProbeSink.Side, j.ProbeSink.Layout)
	// The parent runs are fully scattered; free the disk space before
	// descending (resident chunks, if any, were scattered too and stay
	// owned by emitSpilled).
	if bsrc.file != nil {
		_ = bsrc.file.Remove()
	}
	if psrc.file != nil {
		_ = psrc.file.Remove()
	}
	for sub := 0; sub < nsub; sub++ {
		if ctx.Err() != nil {
			return
		}
		s.joinSpilledPair(ctx, out, p1, depth+1,
			&spillSrc{file: bsub[sub], rowSize: j.BuildSink.Layout.Size},
			&spillSrc{file: psub[sub], rowSize: j.ProbeSink.Layout.Size,
				copyFrames: j.ProbeSink.Layout.HasStringCols()})
	}
}
