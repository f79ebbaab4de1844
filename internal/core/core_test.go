package core

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/hashx"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/spill"
	"partitionjoin/internal/storage"
)

// --- layout ---

func TestLayoutPackUnpackRoundTrip(t *testing.T) {
	types := []storage.Type{storage.Int64, storage.Int32, storage.Float64, storage.String}
	widths := []int{8, 4, 8, storage.String.Width(10)}
	l := NewLayout(types, widths, []int{0})
	b := exec.NewBatch(types, []int{0, 0, 0, 10})
	b.Vecs[0].I64 = append(b.Vecs[0].I64, 42, -7)
	b.Vecs[1].I64 = append(b.Vecs[1].I64, -123456, 7)
	b.Vecs[1].Width = 4
	b.Vecs[2].F64 = append(b.Vecs[2].F64, 3.25, -0.5)
	b.Vecs[3].Str = append(b.Vecs[3].Str, []byte("hello"), []byte(""))
	b.N = 2

	row := make([]byte, l.Size)
	for i := 0; i < 2; i++ {
		h := hashx.I64(b.Vecs[0].I64[i])
		l.PackRow(row, h, b, []int{0, 1, 2, 3}, i)
		if l.Hash(row) != h {
			t.Fatal("hash round trip failed")
		}
		var out exec.Batch
		out.Vecs = make([]exec.Vector, 4)
		for c := range out.Vecs {
			out.Vecs[c] = exec.NewVector(types[c], 10)
			l.AppendCol(&out.Vecs[c], row, c)
		}
		if out.Vecs[0].I64[0] != b.Vecs[0].I64[i] ||
			out.Vecs[1].I64[0] != b.Vecs[1].I64[i] ||
			out.Vecs[2].F64[0] != b.Vecs[2].F64[i] ||
			string(out.Vecs[3].Str[0]) != string(b.Vecs[3].Str[i]) {
			t.Fatalf("row %d did not round trip", i)
		}
	}
}

func TestLayoutPadding(t *testing.T) {
	// hash(8) + key(8) = 16 -> power of two, buffered.
	l := NewLayout([]storage.Type{storage.Int64}, []int{8}, []int{0})
	if l.Size != 16 || !l.Buffered || !l.AllI64 || !l.KeyI64 {
		t.Fatalf("16B layout: %+v", l)
	}
	// hash + 3 cols = 32; +1 col = 40 -> pads to 64 (still buffered).
	l = NewLayout([]storage.Type{storage.Int64, storage.Int64, storage.Int64, storage.Int64},
		[]int{8, 8, 8, 8}, []int{0})
	if l.Size != 64 || !l.Buffered {
		t.Fatalf("40B layout: size=%d buffered=%v", l.Size, l.Buffered)
	}
	// hash + 8 cols = 72 -> too wide to buffer, padded to 8 only.
	cols := make([]storage.Type, 8)
	ws := make([]int, 8)
	for i := range cols {
		cols[i] = storage.Int64
		ws[i] = 8
	}
	l = NewLayout(cols, ws, []int{0})
	if l.Size != 72 || l.Buffered {
		t.Fatalf("72B layout: size=%d buffered=%v", l.Size, l.Buffered)
	}
	// String layouts are not AllI64.
	l = NewLayout([]storage.Type{storage.Int64, storage.String}, []int{8, 12}, []int{0})
	if l.AllI64 {
		t.Fatal("string layout claims AllI64")
	}
}

func TestKeyEqualAcrossLayouts(t *testing.T) {
	// Same key value packed at different offsets/widths must compare
	// equal across an int64 and an int32 layout.
	la := NewLayout([]storage.Type{storage.Int64, storage.Int64}, []int{8, 8}, []int{0})
	lb := NewLayout([]storage.Type{storage.Int32}, []int{4}, []int{0})
	ba := exec.NewBatch([]storage.Type{storage.Int64, storage.Int64}, nil)
	ba.Vecs[0].I64 = append(ba.Vecs[0].I64, 77)
	ba.Vecs[1].I64 = append(ba.Vecs[1].I64, 1)
	ba.N = 1
	bb := exec.NewBatch([]storage.Type{storage.Int32}, nil)
	bb.Vecs[0].I64 = append(bb.Vecs[0].I64, 77)
	bb.Vecs[0].Width = 4
	bb.N = 1
	rowA := make([]byte, la.Size)
	rowB := make([]byte, lb.Size)
	la.PackRow(rowA, 1, ba, []int{0, 1}, 0)
	lb.PackRow(rowB, 1, bb, []int{0}, 0)
	if !la.KeyEqual(rowA, lb, rowB) {
		t.Fatal("equal keys compared unequal across widths")
	}
	if !la.KeyEqualBatch(rowA, bb, []int{0}, 0) {
		t.Fatal("KeyEqualBatch failed")
	}
	binary.LittleEndian.PutUint32(rowB[lb.Offs[0]:], 78)
	if la.KeyEqual(rowA, lb, rowB) {
		t.Fatal("different keys compared equal")
	}
}

// --- paged partitions & write-combine buffers ---

func TestPagedPartPreservesRowsAcrossPages(t *testing.T) {
	const rowSize = 24
	var p pagedPart
	var want []byte
	// Write in odd-sized chunks so rows straddle flush boundaries.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		rows := 1 + rng.Intn(7)
		chunk := make([]byte, rows*rowSize)
		rng.Read(chunk)
		want = append(want, chunk...)
		p.write(chunk, rowSize, 128, func(n int) []byte { return pagepool.Bytes.Get(n) })
	}
	var got []byte
	for _, pg := range p.pages {
		if len(pg)%rowSize != 0 {
			t.Fatalf("page holds partial rows: %d bytes", len(pg))
		}
		got = append(got, pg...)
	}
	if string(got) != string(want) {
		t.Fatalf("pages lost or reordered data: %d vs %d bytes", len(got), len(want))
	}
	if p.rows != int64(len(want)/rowSize) {
		t.Fatalf("row count %d, want %d", p.rows, len(want)/rowSize)
	}
	putPages(p.pages)
}

func TestSWWCBSetFlushesWholeRows(t *testing.T) {
	const rowSize, fanout = 16, 8
	sw := newSWWCBSet(fanout, 64, rowSize)
	got := make(map[int][]byte)
	flush := func(p int, data []byte) {
		if len(data)%rowSize != 0 {
			t.Fatalf("flush of partial rows: %d bytes", len(data))
		}
		got[p] = append(got[p], data...)
	}
	want := make(map[int][]byte)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p := rng.Intn(fanout)
		row := make([]byte, rowSize)
		rng.Read(row)
		want[p] = append(want[p], row...)
		copy(sw.slot(p, flush), row)
	}
	sw.drain(flush)
	for p := range want {
		if string(got[p]) != string(want[p]) {
			t.Fatalf("partition %d corrupted", p)
		}
	}
}

func TestSWWCBWideRowsDegradeToDirect(t *testing.T) {
	sw := newSWWCBSet(4, 64, 100) // row wider than buffer
	flushed := 0
	flush := func(p int, data []byte) { flushed++ }
	copy(sw.slot(0, flush), make([]byte, 100))
	copy(sw.slot(0, flush), make([]byte, 100))
	// Second slot must have flushed the first row immediately.
	if flushed != 1 {
		t.Fatalf("wide rows buffered: %d flushes", flushed)
	}
}

// --- robin-hood table ---

func TestRHTableMatchesMapReference(t *testing.T) {
	check := func(keys []uint16) bool {
		var ht rhTable
		ht.reset(len(keys))
		ref := map[uint64][]int32{}
		for i, k := range keys {
			h := hashx.U64(uint64(k))
			ht.insert(h, int32(i))
			ref[h] = append(ref[h], int32(i))
		}
		for _, k := range keys {
			h := hashx.U64(uint64(k))
			var got []int32
			ht.probe(h, func(idx int32) { got = append(got, idx) })
			if len(got) != len(ref[h]) {
				return false
			}
		}
		// A key never inserted must not be found.
		miss := 0
		ht.probe(hashx.U64(1<<40), func(int32) { miss++ })
		return miss == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRHTableReuseAcrossPartitions(t *testing.T) {
	var ht rhTable
	for round := 0; round < 5; round++ {
		n := 100 * (round + 1)
		ht.reset(n)
		for i := 0; i < n; i++ {
			ht.insert(hashx.U64(uint64(round*10000+i)), int32(i))
		}
		found := 0
		for i := 0; i < n; i++ {
			ht.probe(hashx.U64(uint64(round*10000+i)), func(int32) { found++ })
		}
		if found != n {
			t.Fatalf("round %d: found %d of %d", round, found, n)
		}
		// Previous round's keys must be gone.
		if round > 0 {
			stale := 0
			ht.probe(hashx.U64(uint64((round-1)*10000)), func(int32) { stale++ })
			if stale != 0 {
				t.Fatal("stale entries survived reset")
			}
		}
	}
}

// TestRHTableShrinksAfterLargePartition: one large (skewed or split)
// partition must not leave every later partition on that worker clearing and
// probing the large, sparse table.
func TestRHTableShrinksAfterLargePartition(t *testing.T) {
	var ht rhTable
	ht.reset(100000)
	large := cap(ht.entries)
	ht.reset(100)
	if need := 256; int(ht.mask)+1 != need || len(ht.entries) != need {
		t.Fatalf("reset(100) after reset(100000): mask+1=%d, %d entries, want %d", ht.mask+1, len(ht.entries), need)
	}
	if cap(ht.entries) != large {
		t.Fatalf("table memory not kept for reuse: cap %d, was %d", cap(ht.entries), large)
	}
	for i := 0; i < 100; i++ {
		ht.insert(hashx.U64(uint64(i)), int32(i))
	}
	found := 0
	for i := 0; i < 100; i++ {
		ht.probe(hashx.U64(uint64(i)), func(int32) { found++ })
	}
	if found != 100 {
		t.Fatalf("found %d of 100 after shrinking", found)
	}
}

// TestRHSlotAvoidsRadixBits verifies the slot bits are disjoint from the
// partitioning bits: keys sharing low radix bits must not collide into the
// same slot neighborhood.
func TestRHSlotAvoidsRadixBits(t *testing.T) {
	const samePartition = 0x2a // all keys share these low bits
	slots := map[uint32]bool{}
	for i := 0; i < 256; i++ {
		h := (hashx.U64(uint64(i)) &^ 0x3fff) | samePartition
		slots[rhSlot(h)&255] = true
	}
	if len(slots) < 100 {
		t.Fatalf("only %d distinct slots for 256 same-partition hashes", len(slots))
	}
}

// --- radix partitioning end to end ---

// driveSink pushes n synthetic (key, payload) tuples through a RadixSink
// using the given worker count.
func driveSink(s *RadixSink, n, workers int, keyOf func(i int) int64) {
	s.Open(workers)
	perWorker := (n + workers - 1) / workers
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			ctx := &exec.Ctx{Worker: w, Workers: workers}
			b := exec.NewBatch([]storage.Type{storage.Int64, storage.Int64}, nil)
			lo, hi := w*perWorker, (w+1)*perWorker
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				if b.N == exec.BatchSize {
					s.Consume(ctx, b)
					b.Reset()
				}
				b.Vecs[0].I64 = append(b.Vecs[0].I64, keyOf(i))
				b.Vecs[1].I64 = append(b.Vecs[1].I64, int64(i))
				b.N++
			}
			if b.N > 0 {
				s.Consume(ctx, b)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	s.Close()
}

// partRows concatenates the chunks of one final partition.
func partRows(out *Partitions, pid int) []byte {
	var rows []byte
	for _, c := range out.parts[pid] {
		rows = append(rows, c...)
	}
	return rows
}

func testJoinPair(cfg Config) *RadixJoin {
	layout := NewLayout([]storage.Type{storage.Int64, storage.Int64}, []int{8, 8}, []int{0})
	probeLayout := NewLayout([]storage.Type{storage.Int64, storage.Int64}, []int{8, 8}, []int{0})
	return NewRadixJoin(cfg, Inner, nil,
		layout, []int{0, 1}, []int{0}, -1,
		probeLayout, []int{0, 1}, []int{0}, -1,
		[]int{1}, []int{1})
}

func TestRadixPartitioningInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBudget = 1 << 10 // force a second pass
	j := testJoinPair(cfg)
	const n = 20000
	driveSink(j.BuildSink, n, 3, func(i int) int64 { return int64(i) })

	out := j.BuildSink.Out
	if out.Rows != n {
		t.Fatalf("partitioning lost rows: %d of %d", out.Rows, n)
	}
	if out.B2 == 0 {
		t.Fatalf("expected a second pass with tiny cache budget (b2=%d)", out.B2)
	}
	mask := uint64(out.NumParts() - 1)
	seen := map[int64]bool{}
	for pid := 0; pid < out.NumParts(); pid++ {
		part := partRows(out, pid)
		for off := 0; off < len(part); off += out.Layout.Size {
			h := out.Layout.Hash(part[off:])
			if h&mask != uint64(pid) {
				t.Fatalf("row with hash %x in wrong partition %d", h, pid)
			}
			key := out.Layout.GetI64(part[off:], 0)
			if h != hashx.I64(key) {
				t.Fatalf("stored hash does not match key %d", key)
			}
			pay := out.Layout.GetI64(part[off:], 1)
			if seen[pay] {
				t.Fatalf("payload %d duplicated", pay)
			}
			seen[pay] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("multiset not preserved: %d of %d", len(seen), n)
	}
}

// TestDiscardAfterFailedClose: a radix sink whose first worker took no rows,
// and whose Close fails on its last allocation (in pass 2), still gives every
// page back exactly once through Discard. Close lists its live workers apart
// from s.workers; compacting in place would leave worker 1 in both slots.
func TestDiscardAfterFailedClose(t *testing.T) {
	faultinject.FailOnLeak(t)
	cfg := DefaultConfig()
	cfg.CacheBudget = 1 << 10 // force a second pass
	consume := func() *RadixJoin {
		j := testJoinPair(cfg)
		j.Gov = govern.New(0)
		j.BuildSink.Open(2)
		b := exec.NewBatch([]storage.Type{storage.Int64, storage.Int64}, nil)
		for i := 0; i < 20000; i++ {
			b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(i))
			b.Vecs[1].I64 = append(b.Vecs[1].I64, int64(i))
		}
		b.N = 20000
		j.BuildSink.Consume(&exec.Ctx{Worker: 1, Workers: 2}, b)
		return j
	}
	// Count Close's grants, then fail the last one.
	j := consume()
	faultinject.Enable(govern.GrantSite, faultinject.Fault{Kind: faultinject.Stall})
	j.BuildSink.Close()
	grants := faultinject.Triggers(govern.GrantSite)
	faultinject.Disable(govern.GrantSite)
	if j.BuildSink.Out.B2 == 0 {
		t.Fatal("no second pass; the failure would not land in it")
	}
	j.Discard()

	stop := pagepool.Trace()
	j = consume()
	faultinject.Arm(t, govern.GrantSite, faultinject.Fault{Kind: faultinject.Fail, After: grants - 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Close did not fail")
			}
		}()
		j.BuildSink.Close()
	}()
	j.Discard()
	if bad, out := stop(); bad != 0 || out != 0 {
		t.Fatalf("%d pages handed out twice or given up unheld, %d never given up", bad, out)
	}
}

func TestProbeBeforeBuildPanics(t *testing.T) {
	j := testJoinPair(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("probe-before-build did not panic")
		}
	}()
	driveSink(j.ProbeSink, 100, 1, func(i int) int64 { return int64(i) })
}

func TestBloomBuiltDuringPass2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bloom = true
	cfg.CacheBudget = 1 << 10
	j := testJoinPair(cfg)
	const n = 5000
	driveSink(j.BuildSink, n, 2, func(i int) int64 { return int64(i) })
	f := j.Filter()
	if f == nil {
		t.Fatal("no Bloom filter built")
	}
	for i := 0; i < n; i++ {
		if !f.MayContain(hashx.I64(int64(i))) {
			t.Fatalf("false negative for build key %d", i)
		}
	}
	fp := 0
	for i := n; i < 2*n; i++ {
		if f.MayContain(hashx.I64(int64(i))) {
			fp++
		}
	}
	if rate := float64(fp) / n; rate > 0.15 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
	if f.Blocks() < 1<<(j.Cfg.Pass1Bits+j.b2) {
		t.Fatal("filter smaller than fan-out: concurrent pass-2 tasks would share blocks")
	}
}

func TestTotalBitsFor(t *testing.T) {
	cfg := DefaultConfig()
	if got := totalBitsFor(cfg, 0); got != cfg.MinTotalBits {
		t.Fatalf("empty build: %d bits", got)
	}
	if got := totalBitsFor(cfg, int64(cfg.CacheBudget)); got != cfg.MinTotalBits {
		t.Fatalf("cache-resident build: %d bits", got)
	}
	if got := totalBitsFor(cfg, int64(cfg.CacheBudget)*8); got != 3 {
		t.Fatalf("8x budget: %d bits, want 3", got)
	}
	if got := totalBitsFor(cfg, 1<<40); got != cfg.Pass1Bits+cfg.MaxPass2Bits {
		t.Fatalf("huge build not capped: %d bits", got)
	}
}

func TestTagBitDisjointFromDirectoryBits(t *testing.T) {
	// Directory slots use low bits; the tag must live in the top 16.
	for i := 0; i < 1000; i++ {
		h := hashx.U64(uint64(i))
		tb := tagBit(h)
		if tb&((1<<48)-1) != 0 {
			t.Fatalf("tag bit %x overlaps the index bits", tb)
		}
	}
}

func TestMarkBitConcurrent(t *testing.T) {
	bits := make([]uint32, 4)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := int32(0); i < 128; i++ {
				markBit(bits, i)
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	for i, w := range bits {
		if w != ^uint32(0) {
			t.Fatalf("word %d = %x", i, w)
		}
	}
}

// TestReloadReadsFramesInPlace: a spilled build side is gathered straight
// into its pooled reload buffer, resident chunks first, and a probe run is
// handed out frame by frame in one pooled buffer (or, copyFrames, in a
// buffer per frame); a frame damaged on disk or torn off the end of its
// file is still an error naming the file and the frame.
func TestReloadReadsFramesInPlace(t *testing.T) {
	const rowSize = 16
	dir, err := spill.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Cleanup()
	f, err := dir.File("j1-p003.build")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rows := func(n int) []byte {
		b := make([]byte, n*rowSize)
		rng.Read(b)
		return b
	}
	resident := rows(5)
	want := append([]byte(nil), resident...)
	var frames [][]byte
	for _, n := range []int{40, 100, 7} {
		fr := rows(n)
		frames = append(frames, fr)
		want = append(want, fr...)
		if err := f.Append(fr, n); err != nil {
			t.Fatal(err)
		}
	}
	ctx := &exec.Ctx{}
	src := &spillSrc{file: f, resident: [][]byte{resident}, rowSize: rowSize}
	buf := pagepool.Bytes.Get(int(src.bytes()))
	defer pagepool.Bytes.Put(buf)
	got, err := src.gather(ctx, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) || &got[0] != &buf[:1][0] {
		t.Fatalf("gathered %d bytes (in the reload buffer: %v), want %d", len(got), &got[0] == &buf[:1][0], len(want))
	}

	for _, copyFrames := range []bool{false, true} {
		src.copyFrames = copyFrames
		var chunks [][]byte
		if err := src.each(ctx, func(c []byte) { chunks = append(chunks, c) }); err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 4 {
			t.Fatalf("each yielded %d chunks, want the resident one and 3 frames", len(chunks))
		}
		// The pooled frame buffer is reused for every frame, so only the
		// last frame is still in it; private copies keep every frame.
		for i, fr := range frames {
			if keeps := copyFrames || i == len(frames)-1; keeps && string(chunks[i+1]) != string(fr) {
				t.Fatalf("copyFrames=%v: frame %d differs", copyFrames, i)
			}
		}
		if shared := &chunks[1][0] == &chunks[2][0]; shared == copyFrames {
			t.Fatalf("copyFrames=%v: frames 0 and 1 share a buffer: %v", copyFrames, shared)
		}
	}

	// Damage frame 1 on disk, then tear frame 2 off the end of the file.
	path := filepath.Join(dir.Path(), "j1-p003.build")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := 8 + len(frames[0]) + 8
	raw[frame1+9] ^= 0x04
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := src.gather(ctx, buf); err == nil || !strings.Contains(err.Error(), "j1-p003.build frame 1: checksum mismatch") {
		t.Fatalf("damaged frame: err = %v, want a checksum error naming file and frame", err)
	}
	raw[frame1+9] ^= 0x04
	if err := os.WriteFile(path, raw[:len(raw)-30], 0o600); err != nil {
		t.Fatal(err)
	}
	src.copyFrames = false
	if err := src.each(ctx, func([]byte) {}); err == nil ||
		!strings.Contains(err.Error(), "j1-p003.build frame 2:") {
		t.Fatalf("torn frame: err = %v, want an error naming file and frame", err)
	}
}
