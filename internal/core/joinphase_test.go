package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"partitionjoin/internal/adapt"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/hashx"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/spill"
	"partitionjoin/internal/storage"
)

// These tests cover the join phase over build partitions of several chunks
// — pass-1 pages of several workers, a split's sub-pages, a spilled pair's
// resident build side — which it joins where they lie, each build row
// addressed by its slot.

var allJoinKinds = []JoinKind{Inner, Semi, Anti, Mark, LeftOuter, RightOuter, LeftSemi, LeftAnti}

// joinSide is one join input: a key, an integer and a string payload per row.
type joinSide struct {
	keys, ints []int64
	strs       []string
}

func (s *joinSide) add(key, val int64, str string) {
	s.keys = append(s.keys, key)
	s.ints = append(s.ints, val)
	s.strs = append(s.strs, str)
}

// phaseJoin wires a radix join of two (key, integer[, string]) sides that
// emits every payload column.
func phaseJoin(cfg Config, kind JoinKind, strs bool) *RadixJoin {
	types, widths := []storage.Type{storage.Int64, storage.Int64}, []int{8, 8}
	cols, out := []int{0, 1}, []int{1}
	if strs {
		types, widths = append(types, storage.String), append(widths, 16)
		cols, out = append(cols, 2), append(out, 2)
	}
	return NewRadixJoin(cfg, kind, nil,
		NewLayout(types, widths, []int{0}), cols, []int{0}, -1,
		NewLayout(types, widths, []int{0}), cols, []int{0}, -1,
		out, out)
}

// feed partitions a side on several workers, each consuming its own share
// of the rows in batches, and closes the sink.
func feed(s *RadixSink, side joinSide, workers int) {
	s.Open(workers)
	n := len(side.keys)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := &exec.Ctx{Worker: w, Workers: workers}
			b := exec.NewBatch(s.Layout.Types, nil)
			for i := w * per; i < min((w+1)*per, n); i++ {
				if b.N == exec.BatchSize {
					s.Consume(ctx, b)
					b.Reset()
				}
				b.Vecs[0].I64 = append(b.Vecs[0].I64, side.keys[i])
				b.Vecs[1].I64 = append(b.Vecs[1].I64, side.ints[i])
				if len(b.Vecs) > 2 {
					b.Vecs[2].Str = append(b.Vecs[2].Str, []byte(side.strs[i]))
				}
				b.N++
			}
			if b.N > 0 {
				s.Consume(ctx, b)
			}
		}(w)
	}
	wg.Wait()
	s.Close()
}

// rowCollector stands for the rest of a pipeline: like a BHJ probe above
// the join it buffers result rows — string columns as the slices the join
// emitted into the partition chunks — until it is flushed, and like a sink
// it then copies them. A chunk given back to the (poisoned) pool before the
// rows that point into it were flushed shows up as a wrong row.
type rowCollector struct {
	mu      sync.Mutex
	pending [][]any
	rows    []string
}

func (c *rowCollector) Process(_ *exec.Ctx, b *exec.Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < b.N; i++ {
		row := make([]any, len(b.Vecs))
		for v := range b.Vecs {
			if b.Vecs[v].T == storage.String {
				row[v] = b.Vecs[v].Str[i]
			} else {
				row[v] = b.Vecs[v].I64[i]
			}
		}
		c.pending = append(c.pending, row)
	}
}

func (c *rowCollector) Flush(*exec.Ctx) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, row := range c.pending {
		var sb strings.Builder
		for _, v := range row {
			if s, ok := v.([]byte); ok {
				fmt.Fprintf(&sb, "%q|", s)
			} else {
				fmt.Fprintf(&sb, "%d|", v)
			}
		}
		c.rows = append(c.rows, sb.String())
	}
	c.pending = c.pending[:0]
}

// runJoinPhase runs every task of the join's partition-pair source on two
// workers, flushes the collector at the end as the pipeline driver does,
// and returns the rows sorted.
func runJoinPhase(j *RadixJoin) []string {
	const workers = 2
	src := j.JoinSource()
	col := &rowCollector{}
	ctxs := []*exec.Ctx{{Worker: 0, Workers: workers}, {Worker: 1, Workers: workers}}
	parallelFor(src.Tasks(), workers, func(w, task int) { src.Emit(ctxs[w], task, col) })
	col.Flush(ctxs[0])
	sort.Strings(col.rows)
	return col.rows
}

// refJoinPhase renders the join of kind over the two sides from a map.
func refJoinPhase(kind JoinKind, b, p joinSide, strs bool) []string {
	render := func(s joinSide, i int) string {
		val, str := int64(0), ""
		if i >= 0 {
			val, str = s.ints[i], s.strs[i]
		}
		if !strs {
			return fmt.Sprintf("%d|", val)
		}
		return fmt.Sprintf("%d|%q|", val, str)
	}
	byKey := map[int64][]int{}
	for i, k := range b.keys {
		byKey[k] = append(byKey[k], i)
	}
	matched := make([]bool, len(b.keys))
	rows := []string{}
	for pi, k := range p.keys {
		ms := byKey[k]
		for _, bi := range ms {
			matched[bi] = true
			if kind == Inner || kind == LeftOuter || kind == RightOuter {
				rows = append(rows, render(b, bi)+render(p, pi))
			}
		}
		switch {
		case kind == Semi && len(ms) > 0, kind == Anti && len(ms) == 0:
			rows = append(rows, render(p, pi))
		case kind == Mark:
			rows = append(rows, render(p, pi)+fmt.Sprintf("%d|", min(len(ms), 1)))
		case kind == RightOuter && len(ms) == 0:
			rows = append(rows, render(b, -1)+render(p, pi))
		}
	}
	for bi := range b.keys {
		switch {
		case kind == LeftOuter && !matched[bi]:
			rows = append(rows, render(b, bi)+render(p, -1))
		case kind == LeftSemi && matched[bi], kind == LeftAnti && !matched[bi]:
			rows = append(rows, render(b, bi))
		}
	}
	sort.Strings(rows)
	return rows
}

// firstDiff describes the first position where two sorted row lists differ.
func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %s, want %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("one list is a prefix of the other (%d vs %d rows)", len(got), len(want))
}

// multiChunkParts counts the build partitions of more than one chunk.
func multiChunkParts(out *Partitions) int {
	n := 0
	for _, chunks := range out.parts {
		if len(chunks) > 1 {
			n++
		}
	}
	return n
}

// TestJoinPhaseOverChunksMatchesReference is the differential over build
// partitions of several chunks, with the page pool poisoned: every join
// kind, integer and string payloads, after one pass (three workers' pass-1
// pages per partition), two passes, a skew split (a hot key's sub-partition
// spans growing pages), and a spill whose pairs keep their build side
// resident (only probe partitions evict), equals a map join.
func TestJoinPhaseOverChunksMatchesReference(t *testing.T) {
	defer pagepool.Poison()()
	// Build keys 4000..4999 and probe keys 2500..3999 have no partner; the
	// hot key gives one partition far more rows than the split threshold.
	sides := func(hot bool) (build, probe joinSide) {
		for i := 0; i < 4000; i++ {
			build.add(int64(i*7%5000), int64(i), fmt.Sprintf("b-%d", i))
		}
		for i := 0; i < 6000; i++ {
			probe.add(int64(i*11%4000), int64(i), fmt.Sprintf("p-%d", i))
		}
		for i := 0; hot && i < 3000; i++ {
			build.add(1<<40, int64(10000+i), fmt.Sprintf("h-%d", i))
		}
		for i := 0; hot && i < 3; i++ {
			probe.add(1<<40, int64(10000+i), fmt.Sprintf("q-%d", i))
		}
		return build, probe
	}
	build, probe := sides(false)
	hotBuild, hotProbe := sides(true)

	// Three workers' first pages of every partition, both sides: a budget
	// that holds the build side and a third of the probe side's pages.
	const pagesPerSide = 3 << 6 * pageBytes
	type variant struct {
		name        string
		build, prob joinSide
		cache       int
		skew, spill bool
	}
	for _, v := range []variant{
		{name: "one pass", build: build, prob: probe},
		{name: "two passes", build: build, prob: probe, cache: 1 << 10},
		{name: "skew split", build: hotBuild, prob: hotProbe, cache: 8 << 10, skew: true},
		{name: "spill, resident build", build: build, prob: probe, spill: true},
	} {
		for _, strs := range []bool{false, true} {
			for _, kind := range allJoinKinds {
				name := fmt.Sprintf("%s/strs=%v/%v", v.name, strs, kind)
				cfg := DefaultConfig()
				if v.cache > 0 {
					cfg.CacheBudget = v.cache
				}
				j := phaseJoin(cfg, kind, strs)
				var ctl *adapt.Controller
				if v.skew {
					ctl = adapt.NewController(adapt.Config{}, nil, nil)
					j.Adapt = ctl.Join(1)
				}
				if v.spill {
					dir, err := spill.NewDir(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					j.Gov = govern.New(pagesPerSide + pagesPerSide/3)
					j.Spill = NewJoinSpill(dir, j.Gov, nil, 1)
				}
				feed(j.BuildSink, v.build, 3)
				if v.cache == 0 && multiChunkParts(j.BuildSink.Out) == 0 {
					t.Fatalf("%s: no build partition spans several chunks", name)
				}
				feed(j.ProbeSink, v.prob, 3)
				got := runJoinPhase(j)
				if want := refJoinPhase(kind, v.build, v.prob, strs); !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows, want %d; first difference: %s", name, len(got), len(want), firstDiff(got, want))
				}
				if v.skew && ctl.Stats().Splits == 0 {
					t.Fatalf("%s: no partition was split", name)
				}
				if v.spill {
					resident := 0
					for _, p1 := range j.Spill.spilledList() {
						if j.Spill.lookup(p1, j.BuildSink.Side) == nil {
							resident++
						}
					}
					if resident == 0 {
						t.Fatalf("%s: no spilled pair kept its build side resident (%+v)", name, j.Spill.Stats())
					}
					if err := j.Spill.dir.Cleanup(); err != nil {
						t.Fatal(err)
					}
				}
				j.Discard()
			}
		}
	}
}

// --- join-phase microbenchmark: one partition pair, one chunk or pages ---

const (
	jpBuildRows = 1 << 14 // 512 KiB of 32-byte rows: one cache-budget partition
	jpProbeRows = 1 << 15
	jpPages     = 16
)

// packRows packs n rows of a testJoinPair layout: the hash, key(i) and i.
func packRows(l *Layout, n int, key func(i int) int64) []byte {
	rows := make([]byte, n*l.Size)
	for i := 0; i < n; i++ {
		row := rows[i*l.Size:]
		k := key(i)
		binary.LittleEndian.PutUint64(row, hashx.I64(k))
		binary.LittleEndian.PutUint64(row[l.Offs[0]:], uint64(k))
		binary.LittleEndian.PutUint64(row[l.Offs[1]:], uint64(i))
	}
	return rows
}

// joinPartitionFixture packs a partition pair of the testJoinPair layouts:
// distinct build keys, each matched by two probe rows. It returns the build
// rows as one chunk and the same rows as jpPages pages, and the probe rows
// as one chunk.
func joinPartitionFixture(j *RadixJoin) (one, pages [][]byte, probe []byte) {
	build := packRows(j.BuildSink.Layout, jpBuildRows, func(i int) int64 { return int64(i) })
	per := len(build) / jpPages
	for p := 0; p < jpPages; p++ {
		pages = append(pages, build[p*per:(p+1)*per:(p+1)*per])
	}
	return [][]byte{build}, pages, packRows(j.ProbeSink.Layout, jpProbeRows, func(i int) int64 { return int64(i / 2) })
}

// joinPartition joins one partition pair where its chunks lie and keeps
// them, as a join task does before it frees them.
func joinPartition(src *PartitionJoinSource, ctx *exec.Ctx, out exec.Operator, bch, pch [][]byte) {
	w := src.buildTable(ctx, out, bch, nil)
	for _, c := range pch {
		w.probe(c)
	}
	w.finish()
}

type rowCounter struct{ n int }

func (c *rowCounter) Process(_ *exec.Ctx, b *exec.Batch) { c.n += b.N }
func (c *rowCounter) Flush(*exec.Ctx)                    {}

// BenchmarkJoinPartition measures the join of one partition pair — table
// build, staged probe, result emission — with the build side as one chunk
// and as pages addressed by slot.
func BenchmarkJoinPartition(b *testing.B) {
	j := testJoinPair(DefaultConfig())
	one, pages, probe := joinPartitionFixture(j)
	for _, bc := range []struct {
		name string
		bch  [][]byte
	}{{"one chunk", one}, {fmt.Sprintf("%d pages", jpPages), pages}} {
		b.Run(bc.name, func(b *testing.B) {
			src := j.JoinSource()
			ctx := &exec.Ctx{Workers: 1}
			out := &rowCounter{}
			pch := [][]byte{probe}
			joinPartition(src, ctx, out, bc.bch, pch) // size the table and the output batch
			b.ReportAllocs()
			b.SetBytes(int64(len(one[0]) + len(probe)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.n = 0
				joinPartition(src, ctx, out, bc.bch, pch)
			}
			b.StopTimer()
			if out.n != jpProbeRows {
				b.Fatalf("%d result rows, want %d", out.n, jpProbeRows)
			}
		})
	}
}

// TestJoinPartitionAllocs pins the per-partition task of the join phase at
// zero allocations at steady state, for every join kind: the build side's
// pooled pages and the probe chunk are joined where they lie and freed back
// to the pool, and the worker's table, flags and output batch are reused.
func TestJoinPartitionAllocs(t *testing.T) {
	for _, kind := range allJoinKinds {
		j := testJoinPair(DefaultConfig())
		j.Kind = kind
		_, pages, probe := joinPartitionFixture(j)
		src := j.JoinSource()
		ctx := &exec.Ctx{Workers: 1}
		out := &rowCounter{}
		bch, pch := make([][]byte, len(pages)), make([][]byte, 1)
		task := func() {
			for i, pg := range pages {
				bch[i] = append(pagepool.Bytes.Get(len(pg)), pg...)
			}
			pch[0] = append(pagepool.Bytes.Get(len(probe)), probe...)
			src.joinChunks(ctx, out, bch, pch)
		}
		task() // size the table, the flags and the output batch
		if n := testing.AllocsPerRun(5, task); n > 0 {
			t.Errorf("%v: a partition allocates %.1f times, want 0", kind, n)
		}
	}
}

// TestJoinPartitionCutsOversizedChunks: a build chunk larger than the
// largest pooled page (pass 2's) among small ones — a spilled pair's
// resident build side after pass 2 — is addressed in views of 2^shift rows,
// and every kind still finds each build row by its slot.
func TestJoinPartitionCutsOversizedChunks(t *testing.T) {
	j := testJoinPair(DefaultConfig())
	bl := j.BuildSink.Layout
	big := pagepool.MaxElems/bl.Size + 1000
	const small = 300
	n := big + 3*small
	// Build keys 0..n-1, the oversized chunk in the middle; probe keys are
	// the even build keys, once each.
	build := packRows(bl, n, func(i int) int64 { return int64(i) })
	bch := [][]byte{build[:small*bl.Size], build[small*bl.Size : (small+big)*bl.Size], build[(small+big)*bl.Size:]}
	pch := [][]byte{packRows(j.ProbeSink.Layout, n/2, func(i int) int64 { return int64(2 * i) })}
	even := (n + 1) / 2
	for kind, want := range map[JoinKind]int{
		Inner: n / 2, Semi: n / 2, Anti: 0, Mark: n / 2, RightOuter: n / 2,
		LeftOuter: n/2 + (n - even), LeftSemi: n / 2, LeftAnti: n - n/2,
	} {
		j.Kind = kind
		src := j.JoinSource()
		out := &rowCounter{}
		w := src.buildTable(&exec.Ctx{Workers: 1}, out, bch, nil)
		if len(w.views) != 4 || w.shift != uint(bits.Len(uint(pagepool.MaxElems/bl.Size-1))) {
			t.Fatalf("%v: %d views with shift %d, want the oversized chunk cut in two", kind, len(w.views), w.shift)
		}
		for _, c := range pch {
			w.probe(c)
		}
		w.finish()
		if out.n != want {
			t.Errorf("%v: %d result rows, want %d", kind, out.n, want)
		}
	}
}
