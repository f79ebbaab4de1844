package core

// rhTable is the per-partition hash table of the radix join's final phase:
// open addressing with robin-hood displacement, which Richter et al. found
// the most robust choice for thread-local workloads (Section 4.6). It
// stores only (hash, row index) — "since moving tuples is expensive, we
// only store pointers" — in one contiguous entry array so a probe touches
// a single cache line per slot. The table is sized once per partition
// (cardinality is known after partitioning) and its memory is reused
// across partitions to avoid reallocation.
type rhTable struct {
	entries []rhEntry
	mask    uint32
}

// rhEntry packs hash and row index into 16 bytes; idx < 0 marks empty.
type rhEntry struct {
	hash uint64
	idx  int32
}

// reset prepares the table for n entries, reusing memory when the existing
// capacity suffices ("we reuse the hash table's memory segment"; only
// significant skew forces a reallocation). The table is always sized to n,
// not to the largest partition seen: one skewed partition must not leave
// every later one clearing and probing a large, sparse table.
func (t *rhTable) reset(n int) {
	need := 8
	for need*7 < n*10 { // load factor ~0.7
		need <<= 1
	}
	if need > cap(t.entries) {
		t.entries = make([]rhEntry, need)
	}
	t.entries = t.entries[:need]
	t.mask = uint32(need - 1)
	for i := range t.entries {
		t.entries[i].idx = -1
	}
}

// rhSlot derives the table slot from hash bits disjoint from the radix
// bits: within one partition every tuple shares the low B1+B2 bits (at
// most 14 with the default config), so slotting on them would collapse
// the whole partition onto a handful of slots with long linear-probe
// runs. Balkesen et al.'s join phase uses the next bit group for exactly
// this reason.
func rhSlot(h uint64) uint32 { return uint32(h >> 20) }

// insert places (h, idx), displacing richer entries as it goes.
func (t *rhTable) insert(h uint64, idx int32) {
	slot := rhSlot(h) & t.mask
	dist := uint32(0)
	for {
		e := &t.entries[slot]
		if e.idx < 0 {
			e.hash = h
			e.idx = idx
			return
		}
		occDist := (slot - rhSlot(e.hash)) & t.mask
		if occDist < dist {
			e.hash, h = h, e.hash
			e.idx, idx = idx, e.idx
			dist = occDist
		}
		slot = (slot + 1) & t.mask
		dist++
	}
}

// probe calls visit for every entry whose hash equals h. The robin-hood
// invariant bounds the scan: once an occupant sits closer to its ideal
// slot than our probe distance, h cannot appear further on. The radix
// join's hot loop inlines this logic; this method serves the tests and
// non-critical callers.
func (t *rhTable) probe(h uint64, visit func(idx int32)) {
	slot := rhSlot(h) & t.mask
	dist := uint32(0)
	for {
		e := &t.entries[slot]
		if e.idx < 0 {
			return
		}
		occDist := (slot - rhSlot(e.hash)) & t.mask
		if occDist < dist {
			return
		}
		if e.hash == h {
			visit(e.idx)
		}
		slot = (slot + 1) & t.mask
		dist++
	}
}
