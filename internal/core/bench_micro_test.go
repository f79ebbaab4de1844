package core

import (
	"encoding/binary"
	"testing"

	"partitionjoin/internal/hashx"
)

// --- probe microbenchmark: the radix join's staged robin-hood probe ---

// probeBuildN/probeN size the probe microbenchmark: a table comfortably
// larger than L2 so the staged directory loads have misses to overlap.
const (
	probeBuildN = 1 << 16
	probeN      = 1 << 20
)

// probeTable builds an rhTable over probeBuildN distinct keys plus the
// probe-side hash stream (every probe hits exactly one build key).
func probeTable() (*rhTable, []uint64) {
	t := &rhTable{}
	t.reset(probeBuildN)
	for i := 0; i < probeBuildN; i++ {
		t.insert(hashx.I64(int64(i)), int32(i))
	}
	hashes := make([]uint64, probeN)
	for i := range hashes {
		hashes[i] = hashx.I64(int64((i * 7) % probeBuildN))
	}
	return t, hashes
}

// probeStaged mirrors joinPartition's group-staged probe loop: hash a group
// of rows and load each one's first table entry before walking any probe
// chain, so the random entry-array misses overlap instead of serializing.
// stage (<= probeStage) = 1 degenerates to the unstaged one-at-a-time loop.
func probeStaged(t *rhTable, hashes []uint64, stage int) int {
	entries := t.entries[:t.mask+1]
	mask := t.mask
	matches := 0
	var stSlot [probeStage]uint32
	var stEnt [probeStage]rhEntry
	for base := 0; base < len(hashes); base += stage {
		g := stage
		if base+g > len(hashes) {
			g = len(hashes) - base
		}
		for k := 0; k < g; k++ {
			slot := rhSlot(hashes[base+k]) & mask
			stSlot[k] = slot
			stEnt[k] = entries[slot]
		}
		for k := 0; k < g; k++ {
			h := hashes[base+k]
			slot := stSlot[k]
			e := stEnt[k]
			dist := uint32(0)
			for e.idx >= 0 {
				if occ := (slot - rhSlot(e.hash)) & mask; occ < dist {
					break
				}
				if e.hash == h {
					matches++
				}
				slot = (slot + 1) & mask
				dist++
				e = entries[slot]
			}
		}
	}
	return matches
}

func benchProbe(b *testing.B, stage int) {
	t, hashes := probeTable()
	b.ReportAllocs()
	b.SetBytes(probeN * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := probeStaged(t, hashes, stage); got != probeN {
			b.Fatalf("matches = %d, want %d", got, probeN)
		}
	}
}

// BenchmarkProbeRH measures the staged robin-hood probe at the join's
// prefetch distance.
func BenchmarkProbeRH(b *testing.B) { benchProbe(b, probeStage) }

// BenchmarkProbeRHUnstaged is the one-row-at-a-time baseline the staging
// is measured against.
func BenchmarkProbeRHUnstaged(b *testing.B) { benchProbe(b, 1) }

// TestProbeStagedAllocs pins the staged probe loop at zero allocations per
// run: the stage arrays must stay on the stack.
func TestProbeStagedAllocs(t *testing.T) {
	tbl, hashes := probeTable()
	sink := 0
	if n := testing.AllocsPerRun(5, func() {
		sink += probeStaged(tbl, hashes[:1<<14], probeStage)
	}); n > 0 {
		t.Fatalf("probeStaged allocates %.1f times per run, want 0", n)
	}
	_ = sink
}

// --- scatter microbenchmark: the SWWCB-buffered partitioning pass ---

const (
	scatterRows    = 1 << 19
	scatterFanout  = 512
	scatterRowSize = 16
)

// scatterOnce runs one buffered scatter of scatterRows packed rows into
// fanout partitions — the shape of the radix sink's first pass with the
// AllI64 fast path — flushing full write-combine buffers into slabs.
func scatterOnce(sw *swwcbSet, hashes []uint64, slabs [][]byte) {
	flush := func(p int, data []byte) { slabs[p] = append(slabs[p], data...) }
	for i, h := range hashes {
		p := int(h & (scatterFanout - 1))
		dst := sw.tryslot(p)
		if dst == nil {
			dst = sw.flushSlot(p, flush)
		}
		binary.LittleEndian.PutUint64(dst, h)
		binary.LittleEndian.PutUint64(dst[8:], uint64(i))
	}
	sw.drain(flush)
}

func scatterFixture() (*swwcbSet, []uint64, [][]byte) {
	hashes := make([]uint64, scatterRows)
	for i := range hashes {
		hashes[i] = hashx.I64(int64(i))
	}
	sw := newSWWCBSet(scatterFanout, 2048, scatterRowSize)
	slabs := make([][]byte, scatterFanout)
	for p := range slabs {
		// 2x the uniform share so a skewed hash never reallocates.
		slabs[p] = make([]byte, 0, scatterRows/scatterFanout*scatterRowSize*2)
	}
	return sw, hashes, slabs
}

// BenchmarkScatterSWWCB measures the write-combine-buffered scatter with
// the inlined tryslot fast path.
func BenchmarkScatterSWWCB(b *testing.B) {
	sw, hashes, slabs := scatterFixture()
	b.ReportAllocs()
	b.SetBytes(scatterRows * scatterRowSize)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for p := range slabs {
			slabs[p] = slabs[p][:0]
		}
		scatterOnce(sw, hashes, slabs)
	}
	b.StopTimer()
	var rows int
	for p := range slabs {
		rows += len(slabs[p]) / scatterRowSize
	}
	if rows != scatterRows {
		b.Fatalf("scattered %d rows, want %d", rows, scatterRows)
	}
}

// TestScatterAllocs pins the steady-state scatter loop at zero allocations
// per run: buffers and slabs are preallocated, and the tryslot/flushSlot
// split must not force the flush closure or row slices to escape per row.
func TestScatterAllocs(t *testing.T) {
	sw, hashes, slabs := scatterFixture()
	scatterOnce(sw, hashes, slabs) // warm slab capacities
	if n := testing.AllocsPerRun(5, func() {
		for p := range slabs {
			slabs[p] = slabs[p][:0]
		}
		scatterOnce(sw, hashes, slabs)
	}); n > 0 {
		t.Fatalf("scatterOnce allocates %.1f times per run, want 0", n)
	}
}
