package exec

import (
	"bytes"
	"math"

	"partitionjoin/internal/govern"
	"partitionjoin/internal/hashx"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/storage"
)

// AggKind enumerates the aggregate functions of the substrate.
type AggKind uint8

const (
	// AggCount counts tuples (COUNT(*)).
	AggCount AggKind = iota
	// AggSumI sums an int64 column (exact, order-independent — decimals
	// are scaled integers so parallel merge order cannot change results).
	AggSumI
	// AggSumF sums a float64 column.
	AggSumF
	// AggMinI / AggMaxI extremize an int64 column.
	AggMinI
	AggMaxI
	// AggMinF / AggMaxF extremize a float64 column.
	AggMinF
	AggMaxF
	// AggAvgF averages an int64 or float64 column into a float64.
	AggAvgF
	// AggCountDistinctI counts distinct int64 values.
	AggCountDistinctI
	// AggMinStr keeps the lexicographically smallest string.
	AggMinStr
)

// AggSpec names one aggregate over a batch vector (Col = vector index;
// -1 for AggCount).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// OutType returns the output type of the aggregate.
func (a AggSpec) OutType() storage.Type {
	switch a.Kind {
	case AggCount, AggSumI, AggMinI, AggMaxI, AggCountDistinctI:
		return storage.Int64
	case AggMinStr:
		return storage.String
	default:
		return storage.Float64
	}
}

// groupTable is one worker's (or the merged) aggregation hash table: a
// power-of-two directory of group ids, probed linearly, over per-group
// arrays indexed by group id — the group's 64-bit hash, one column per
// grouping key and one state lane per aggregate. The directory, hashes,
// integer and float key columns and state lanes are pool pages, all at the
// table's capacity (len(hashes)); the directory has twice as many slots.
// String key bytes and AggMinStr values are owned by the garbage collector,
// as are COUNT(DISTINCT) sets: result batches point into them.
type groupTable struct {
	n       int32
	dir     []int32                // group id per slot, -1 = empty
	hashes  []uint64               // per group, never recomputed after insertion
	keyVecs []Vector               // per key: an I64 or F64 page, or Str (GC-owned, len n)
	aggI    [][]int64              // per aggregate: integer state (AVG: the count), or nil
	aggF    [][]float64            // per aggregate: float state, or nil
	aggStr  [][][]byte             // per AggMinStr aggregate, GC-owned, len n
	dist    [][]map[int64]struct{} // per AggCountDistinctI aggregate, len n
	strs    []byte                 // GC-owned arena: string keys and AggMinStr values
	// hs and gids are the per-batch scratch of Consume: each row's hash and
	// group id. Pool pages too, taken with the table.
	hs      []uint64
	gids    []int32
	charged int64 // bytes granted for the table's pages, scratch aside
	kept    int64 // bytes granted for the string arena
}

// GroupBySink hash-aggregates its input. Workers aggregate into private
// tables (no synchronization on the hot path); Close adopts the largest as
// the result and folds the others into it. The result is exposed through
// Source, which emits key columns followed by one output column per
// aggregate. Release hands the tables' pages back to the pool.
type GroupBySink struct {
	Keys []int // vector indices of the grouping keys
	Aggs []AggSpec

	// KeyTypes / KeyCaps describe the grouping key vectors (needed to
	// rebuild output vectors); set by the plan layer from the input shape.
	KeyTypes []storage.Type
	KeyCaps  []int

	// Gov is charged for every page a table takes, at its capacity, before
	// it is taken, and for the string bytes the tables keep. Nil records
	// nothing.
	Gov *govern.Governor

	locals []*groupTable
	merged *groupTable
}

// firstGroups is a new table's capacity in groups; tables double from it.
const firstGroups = 16

// usesI / usesF report whether aggregate kind k keeps an integer or a
// float state lane.
func usesI(k AggKind) bool {
	switch k {
	case AggCount, AggSumI, AggMinI, AggMaxI, AggAvgF:
		return true
	}
	return false
}

func usesF(k AggKind) bool {
	switch k {
	case AggSumF, AggMinF, AggMaxF, AggAvgF:
		return true
	}
	return false
}

// tableBytes is what the pages of a table holding c groups take, at the
// capacities the pool hands out.
func (g *GroupBySink) tableBytes(c int) int64 {
	lanes := 1 // hashes
	for _, t := range g.KeyTypes {
		if t != storage.String {
			lanes++
		}
	}
	for _, a := range g.Aggs {
		if usesI(a.Kind) {
			lanes++
		}
		if usesF(a.Kind) {
			lanes++
		}
	}
	return int64(pagepool.Cap(2*c))*4 + int64(pagepool.Cap(c))*8*int64(lanes)
}

// newTable takes an empty table at the first capacity, with its scratch.
// Both are charged at once, before either is taken.
func (g *GroupBySink) newTable() *groupTable {
	t := &groupTable{
		keyVecs: make([]Vector, len(g.Keys)),
		aggI:    make([][]int64, len(g.Aggs)),
		aggF:    make([][]float64, len(g.Aggs)),
		aggStr:  make([][][]byte, len(g.Aggs)),
		dist:    make([][]map[int64]struct{}, len(g.Aggs)),
	}
	for k := range t.keyVecs {
		t.keyVecs[k].T = g.KeyTypes[k]
	}
	g.Gov.MustGrant(scratchBytes(BatchSize) + g.tableBytes(firstGroups))
	t.hs = pagepool.Words.Get(BatchSize)[:BatchSize]
	t.gids = pagepool.Links.Get(BatchSize)[:BatchSize]
	g.resize(t, firstGroups)
	return t
}

// regrow moves a page's first n elements to a page of capacity c and gives
// the old page back.
func regrow[T any](pool *pagepool.Pool[T], old []T, n, c int) []T {
	pg := pool.Get(c)[:c]
	copy(pg, old[:n])
	pool.Put(old)
	return pg
}

// grow doubles t's capacity. The new pages are charged before any is
// taken, so a failed grant leaves the table as it was.
func (g *GroupBySink) grow(t *groupTable) {
	c := 2 * len(t.hashes)
	g.Gov.MustGrant(g.tableBytes(c))
	g.resize(t, c)
}

// resize moves t, whose new pages the caller has charged, to a capacity of
// c groups: every page is replaced by one of the new capacity, and the
// directory is rebuilt from the stored hashes. The old pages' charge is
// given back with them.
func (g *GroupBySink) resize(t *groupTable, c int) {
	n := int(t.n)
	t.hashes = regrow(&pagepool.Words, t.hashes, n, c)
	for k := range t.keyVecs {
		kv := &t.keyVecs[k]
		switch kv.T {
		case storage.String:
		case storage.Float64:
			kv.F64 = regrow(&pagepool.Float64s, kv.F64, n, c)
		default:
			kv.I64 = regrow(&pagepool.Int64s, kv.I64, n, c)
		}
	}
	for ai, a := range g.Aggs {
		if usesI(a.Kind) {
			t.aggI[ai] = regrow(&pagepool.Int64s, t.aggI[ai], n, c)
		}
		if usesF(a.Kind) {
			t.aggF[ai] = regrow(&pagepool.Float64s, t.aggF[ai], n, c)
		}
	}
	pagepool.Links.Put(t.dir)
	t.dir = pagepool.Links.Get(2 * c)[:2*c]
	for i := range t.dir {
		t.dir[i] = -1
	}
	mask := uint64(len(t.dir) - 1)
	for gid, h := range t.hashes[:n] {
		s := h & mask
		for t.dir[s] >= 0 {
			s = (s + 1) & mask
		}
		t.dir[s] = int32(gid)
	}
	g.Gov.Release(t.charged)
	t.charged = g.tableBytes(c)
}

// scratchBytes is what the per-batch scratch for n rows takes: a hash and
// a group id per row.
func scratchBytes(n int) int64 { return int64(pagepool.Cap(n)) * 12 }

// release hands every page of t back to the pool and its charge back to
// the governor. The strings t kept stay with the garbage collector.
func (g *GroupBySink) release(t *groupTable) {
	pagepool.Links.Put(t.dir)
	pagepool.Words.Put(t.hashes)
	for k := range t.keyVecs {
		pagepool.Int64s.Put(t.keyVecs[k].I64)
		pagepool.Float64s.Put(t.keyVecs[k].F64)
	}
	for ai := range g.Aggs {
		pagepool.Int64s.Put(t.aggI[ai])
		pagepool.Float64s.Put(t.aggF[ai])
	}
	pagepool.Words.Put(t.hs)
	pagepool.Links.Put(t.gids)
	g.Gov.Release(t.charged + t.kept + scratchBytes(len(t.hs)))
	*t = groupTable{}
}

// Release hands every page of the sink's tables back to the pool, however
// the query ended: after Close, or with Close never reached (cancellation,
// a failed grant, a panic). The result must have been emitted; no worker
// may still run. Release is idempotent.
func (g *GroupBySink) Release() {
	for _, t := range g.locals {
		if t != nil {
			g.release(t)
		}
	}
	g.locals = nil
	if g.merged != nil {
		g.release(g.merged)
		g.merged = nil
	}
}

// Open implements Sink.
func (g *GroupBySink) Open(workers int) {
	g.locals = make([]*groupTable, workers)
	g.merged = nil
}

func (g *GroupBySink) local(ctx *Ctx) *groupTable {
	t := g.locals[ctx.Worker]
	if t == nil {
		t = g.newTable()
		g.locals[ctx.Worker] = t
	}
	return t
}

// keep copies s into t's string arena and returns the copy. The arena's
// chunks are never reused: results point into them.
func (g *GroupBySink) keep(t *groupTable, s []byte) []byte {
	if len(t.strs)+len(s) > cap(t.strs) {
		size := max(2*cap(t.strs), 4<<10)
		size = max(min(size, 64<<10), len(s))
		g.Gov.MustGrant(int64(size))
		t.kept += int64(size)
		t.strs = make([]byte, 0, size)
	}
	off := len(t.strs)
	t.strs = append(t.strs, s...)
	return t.strs[off:len(t.strs):len(t.strs)]
}

// hashRows computes the group hash of each of the batch's rows into hs,
// straight from the key columns.
func (g *GroupBySink) hashRows(b *Batch, hs []uint64) {
	n := b.N
	for k, ki := range g.Keys {
		v := &b.Vecs[ki]
		switch v.T {
		case storage.String:
			for i, s := range v.Str[:n] {
				hs[i] = mixKey(k, hs[i], hashx.Bytes(s))
			}
		case storage.Float64:
			for i, x := range v.F64[:n] {
				hs[i] = mixKey(k, hs[i], hashx.U64(math.Float64bits(x)))
			}
		default:
			for i, x := range v.I64[:n] {
				hs[i] = mixKey(k, hs[i], hashx.I64(x))
			}
		}
	}
}

// mixKey folds key column k's hash h2 into the row hash h.
func mixKey(k int, h, h2 uint64) uint64 {
	if k == 0 {
		return h2
	}
	return hashx.Combine(h, h2)
}

// sameKey reports whether group gid of t has the key of row i of vecs,
// whose key columns are vecs[cols[k]] (a batch), or vecs[k] with cols nil
// (another table's key columns). Floats are one key only if their bit
// patterns are equal.
func sameKey(t *groupTable, gid int32, vecs []Vector, cols []int, i int) bool {
	for k := range t.keyVecs {
		kv, v := &t.keyVecs[k], &vecs[k]
		if cols != nil {
			v = &vecs[cols[k]]
		}
		switch kv.T {
		case storage.String:
			if !bytes.Equal(kv.Str[gid], v.Str[i]) {
				return false
			}
		case storage.Float64:
			if math.Float64bits(kv.F64[gid]) != math.Float64bits(v.F64[i]) {
				return false
			}
		default:
			if kv.I64[gid] != v.I64[i] {
				return false
			}
		}
	}
	return true
}

// addGroup appends a group with hash h and initial aggregate states,
// growing the table when it is full, and returns its id. The caller fills
// in the key columns.
func (g *GroupBySink) addGroup(t *groupTable, h uint64) int32 {
	if int(t.n) == len(t.hashes) {
		g.grow(t)
	}
	gid := t.n
	t.n++
	t.hashes[gid] = h
	mask := uint64(len(t.dir) - 1)
	s := h & mask
	for t.dir[s] >= 0 {
		s = (s + 1) & mask
	}
	t.dir[s] = gid
	for ai, a := range g.Aggs {
		switch a.Kind {
		case AggCount, AggSumI:
			t.aggI[ai][gid] = 0
		case AggMinI:
			t.aggI[ai][gid] = math.MaxInt64
		case AggMaxI:
			t.aggI[ai][gid] = math.MinInt64
		case AggSumF:
			t.aggF[ai][gid] = 0
		case AggAvgF:
			t.aggF[ai][gid] = 0
			t.aggI[ai][gid] = 0
		case AggMinF:
			t.aggF[ai][gid] = math.Inf(1)
		case AggMaxF:
			t.aggF[ai][gid] = math.Inf(-1)
		case AggCountDistinctI:
			t.dist[ai] = append(t.dist[ai], nil)
		case AggMinStr:
			t.aggStr[ai] = append(t.aggStr[ai], nil)
		}
	}
	return gid
}

// insertRow adds the group of row i of the batch, whose hash is h.
func (g *GroupBySink) insertRow(t *groupTable, b *Batch, i int, h uint64) int32 {
	gid := g.addGroup(t, h)
	for k, ki := range g.Keys {
		v, kv := &b.Vecs[ki], &t.keyVecs[k]
		switch kv.T {
		case storage.String:
			kv.Str = append(kv.Str, g.keep(t, v.Str[i]))
		case storage.Float64:
			kv.F64[gid] = v.F64[i]
		default:
			kv.I64[gid] = v.I64[i]
		}
	}
	return gid
}

// groupRows finds or creates the group of each of the batch's rows into
// t.gids.
func (g *GroupBySink) groupRows(t *groupTable, b *Batch) {
	hs, gids := t.hs[:b.N], t.gids[:b.N]
	g.hashRows(b, hs)
	dir, mask := t.dir, uint64(len(t.dir)-1)
	for i, h := range hs {
		s := h & mask
		for {
			gid := dir[s]
			if gid < 0 {
				gid = g.insertRow(t, b, i, h)
				dir, mask = t.dir, uint64(len(t.dir)-1)
			} else if t.hashes[gid] != h || !sameKey(t, gid, b.Vecs, g.Keys, i) {
				s = (s + 1) & mask
				continue
			}
			gids[i] = gid
			break
		}
	}
}

// update folds the batch's rows into their groups, one aggregate at a
// time: row i goes to group gids[i].
func (g *GroupBySink) update(t *groupTable, b *Batch, gids []int32) {
	for ai, a := range g.Aggs {
		switch a.Kind {
		case AggCount:
			st := t.aggI[ai]
			for _, gid := range gids {
				st[gid]++
			}
		case AggSumI:
			st, col := t.aggI[ai], b.Vecs[a.Col].I64
			for i, gid := range gids {
				st[gid] += col[i]
			}
		case AggMinI:
			st, col := t.aggI[ai], b.Vecs[a.Col].I64
			for i, gid := range gids {
				if x := col[i]; x < st[gid] {
					st[gid] = x
				}
			}
		case AggMaxI:
			st, col := t.aggI[ai], b.Vecs[a.Col].I64
			for i, gid := range gids {
				if x := col[i]; x > st[gid] {
					st[gid] = x
				}
			}
		case AggSumF:
			st, v := t.aggF[ai], &b.Vecs[a.Col]
			for i, gid := range gids {
				st[gid] += numF(v, i)
			}
		case AggMinF:
			st, v := t.aggF[ai], &b.Vecs[a.Col]
			for i, gid := range gids {
				if x := numF(v, i); x < st[gid] {
					st[gid] = x
				}
			}
		case AggMaxF:
			st, v := t.aggF[ai], &b.Vecs[a.Col]
			for i, gid := range gids {
				if x := numF(v, i); x > st[gid] {
					st[gid] = x
				}
			}
		case AggAvgF:
			st, cnt, v := t.aggF[ai], t.aggI[ai], &b.Vecs[a.Col]
			for i, gid := range gids {
				st[gid] += numF(v, i)
				cnt[gid]++
			}
		case AggCountDistinctI:
			sets, col := t.dist[ai], b.Vecs[a.Col].I64
			for i, gid := range gids {
				set := sets[gid]
				if set == nil {
					set = make(map[int64]struct{})
					sets[gid] = set
				}
				set[col[i]] = struct{}{}
			}
		case AggMinStr:
			mins, col := t.aggStr[ai], b.Vecs[a.Col].Str
			for i, gid := range gids {
				if s := col[i]; mins[gid] == nil || string(s) < string(mins[gid]) {
					mins[gid] = g.keep(t, s)
				}
			}
		}
	}
}

// numF reads a numeric vector value as float64.
func numF(v *Vector, i int) float64 {
	if v.T == storage.Float64 {
		return v.F64[i]
	}
	return float64(v.I64[i])
}

// Consume implements Sink.
func (g *GroupBySink) Consume(ctx *Ctx, b *Batch) {
	t := g.local(ctx)
	if b.N > len(t.hs) {
		g.widenScratch(t, b.N)
	}
	if len(g.Keys) == 0 {
		g.consumeGlobal(t, b)
		return
	}
	g.groupRows(t, b)
	g.update(t, b, t.gids[:b.N])
}

// widenScratch replaces t's per-batch scratch with pages for n rows.
func (g *GroupBySink) widenScratch(t *groupTable, n int) {
	g.Gov.MustGrant(scratchBytes(n))
	g.Gov.Release(scratchBytes(len(t.hs)))
	pagepool.Words.Put(t.hs)
	pagepool.Links.Put(t.gids)
	t.hs = pagepool.Words.Get(n)[:pagepool.Cap(n)]
	t.gids = pagepool.Links.Get(n)[:pagepool.Cap(n)]
}

// consumeGlobal is the keyless fast path: a single accumulator per worker,
// updated with one tight loop per aggregate instead of a per-row hash
// lookup — the shape generated code would have for a global aggregate.
func (g *GroupBySink) consumeGlobal(t *groupTable, b *Batch) {
	if t.n == 0 {
		g.addGroup(t, 0)
	}
	for _, a := range g.Aggs {
		switch a.Kind {
		case AggCount, AggSumI, AggSumF, AggMinI, AggMaxI:
		default:
			// A non-vectorizable aggregate: fall back to the generic
			// update, every row into group 0.
			gids := t.gids[:b.N]
			clear(gids)
			g.update(t, b, gids)
			return
		}
	}
	for ai, a := range g.Aggs {
		switch a.Kind {
		case AggCount:
			t.aggI[ai][0] += int64(b.N)
		case AggSumI:
			var s int64
			for _, v := range b.Vecs[a.Col].I64[:b.N] {
				s += v
			}
			t.aggI[ai][0] += s
		case AggSumF:
			v := &b.Vecs[a.Col]
			if v.T == storage.Float64 {
				var s float64
				for _, x := range v.F64[:b.N] {
					s += x
				}
				t.aggF[ai][0] += s
			} else {
				var s float64
				for _, x := range v.I64[:b.N] {
					s += float64(x)
				}
				t.aggF[ai][0] += s
			}
		case AggMinI:
			m := t.aggI[ai][0]
			for _, v := range b.Vecs[a.Col].I64[:b.N] {
				if v < m {
					m = v
				}
			}
			t.aggI[ai][0] = m
		case AggMaxI:
			m := t.aggI[ai][0]
			for _, v := range b.Vecs[a.Col].I64[:b.N] {
				if v > m {
					m = v
				}
			}
			t.aggI[ai][0] = m
		}
	}
}

// Close implements Sink: adopts the largest worker table as the result and
// folds the others into it by their stored hashes. The tables stay
// reachable from the sink throughout, so Release finds every page even when
// a grant fails midway.
func (g *GroupBySink) Close() {
	big := -1
	for w, t := range g.locals {
		if t != nil && (big < 0 || t.n > g.locals[big].n) {
			big = w
		}
	}
	if big < 0 {
		g.merged = g.newTable()
	} else {
		g.merged = g.locals[big]
		g.locals[big] = nil
	}
	m := g.merged
	for w, t := range g.locals {
		if t != nil {
			g.fold(m, t)
			m.kept += t.kept // m now holds t's strings
			t.kept = 0
			g.release(t)
			g.locals[w] = nil
		}
	}
	g.locals = nil
	// SQL semantics: a global aggregate (no GROUP BY keys) over an empty
	// input still yields one row of default values (COUNT = 0).
	if len(g.Keys) == 0 && m.n == 0 {
		g.addGroup(m, 0)
	}
}

// fold merges every group of t into m. Groups are found by their stored
// hash and compared key column by key column; nothing is re-hashed or
// re-packed, and string keys and sets move over without a copy.
func (g *GroupBySink) fold(m, t *groupTable) {
	for gid := int32(0); gid < t.n; gid++ {
		h := t.hashes[gid]
		mask := uint64(len(m.dir) - 1)
		s := h & mask
		mid := m.dir[s]
		for mid >= 0 && (m.hashes[mid] != h || !sameKey(m, mid, t.keyVecs, nil, int(gid))) {
			s = (s + 1) & mask
			mid = m.dir[s]
		}
		if mid < 0 {
			g.adopt(m, t, gid, h)
			continue
		}
		for ai, a := range g.Aggs {
			switch a.Kind {
			case AggCount, AggSumI:
				m.aggI[ai][mid] += t.aggI[ai][gid]
			case AggSumF:
				m.aggF[ai][mid] += t.aggF[ai][gid]
			case AggMinI:
				m.aggI[ai][mid] = min(m.aggI[ai][mid], t.aggI[ai][gid])
			case AggMaxI:
				m.aggI[ai][mid] = max(m.aggI[ai][mid], t.aggI[ai][gid])
			case AggMinF:
				if x := t.aggF[ai][gid]; x < m.aggF[ai][mid] {
					m.aggF[ai][mid] = x
				}
			case AggMaxF:
				if x := t.aggF[ai][gid]; x > m.aggF[ai][mid] {
					m.aggF[ai][mid] = x
				}
			case AggAvgF:
				m.aggF[ai][mid] += t.aggF[ai][gid]
				m.aggI[ai][mid] += t.aggI[ai][gid]
			case AggCountDistinctI:
				dst, src := m.dist[ai][mid], t.dist[ai][gid]
				if dst == nil {
					m.dist[ai][mid] = src
				} else {
					for v := range src {
						dst[v] = struct{}{}
					}
				}
			case AggMinStr:
				s, cur := t.aggStr[ai][gid], m.aggStr[ai][mid]
				if s != nil && (cur == nil || string(s) < string(cur)) {
					m.aggStr[ai][mid] = s
				}
			}
		}
	}
}

// adopt adds group gid of t, whose hash is h, to m with its key and states.
func (g *GroupBySink) adopt(m, t *groupTable, gid int32, h uint64) {
	mid := g.addGroup(m, h)
	for k := range m.keyVecs {
		mv, tv := &m.keyVecs[k], &t.keyVecs[k]
		switch mv.T {
		case storage.String:
			mv.Str = append(mv.Str, tv.Str[gid])
		case storage.Float64:
			mv.F64[mid] = tv.F64[gid]
		default:
			mv.I64[mid] = tv.I64[gid]
		}
	}
	for ai, a := range g.Aggs {
		if usesI(a.Kind) {
			m.aggI[ai][mid] = t.aggI[ai][gid]
		}
		if usesF(a.Kind) {
			m.aggF[ai][mid] = t.aggF[ai][gid]
		}
		switch a.Kind {
		case AggCountDistinctI:
			m.dist[ai][mid] = t.dist[ai][gid]
		case AggMinStr:
			m.aggStr[ai][mid] = t.aggStr[ai][gid]
		}
	}
}

// NumGroups returns the number of result groups after Close.
func (g *GroupBySink) NumGroups() int { return int(g.merged.n) }

// Source returns a Source emitting the aggregation result: key columns in
// Keys order followed by one column per aggregate.
func (g *GroupBySink) Source() *GroupSource { return &GroupSource{g: g} }

// OutTypes returns the logical types of the result columns.
func (g *GroupBySink) OutTypes() ([]storage.Type, []int) {
	ts := make([]storage.Type, 0, len(g.Keys)+len(g.Aggs))
	caps := make([]int, 0, len(g.Keys)+len(g.Aggs))
	ts = append(ts, g.KeyTypes...)
	caps = append(caps, g.KeyCaps...)
	for _, a := range g.Aggs {
		ts = append(ts, a.OutType())
		caps = append(caps, 64)
	}
	return ts, caps
}

// GroupSource emits the merged aggregation result batch-wise, split into
// morsel-sized chunks for parallel post-processing (having, ordering).
type GroupSource struct {
	g *GroupBySink
}

// Tasks implements Source.
func (s *GroupSource) Tasks() int {
	return (int(s.g.merged.n) + BatchSize - 1) / BatchSize
}

// Emit implements Source.
func (s *GroupSource) Emit(ctx *Ctx, task int, out Operator) {
	g := s.g
	m := g.merged
	start := task * BatchSize
	end := start + BatchSize
	if end > int(m.n) {
		end = int(m.n)
	}
	ts, caps := g.OutTypes()
	if ctx.scanBatch == nil {
		ctx.scanBatch = NewBatch(ts, caps)
	}
	b := ctx.scanBatch
	b.Reset()
	for k := range g.Keys {
		v := &b.Vecs[k]
		sv := &m.keyVecs[k]
		switch v.T {
		case storage.String:
			v.Str = append(v.Str, sv.Str[start:end]...)
		case storage.Float64:
			v.F64 = append(v.F64, sv.F64[start:end]...)
		default:
			v.I64 = append(v.I64, sv.I64[start:end]...)
		}
	}
	for ai, a := range g.Aggs {
		v := &b.Vecs[len(g.Keys)+ai]
		for gid := start; gid < end; gid++ {
			switch a.Kind {
			case AggCount, AggSumI, AggMinI, AggMaxI:
				v.I64 = append(v.I64, m.aggI[ai][gid])
			case AggSumF, AggMinF, AggMaxF:
				v.F64 = append(v.F64, m.aggF[ai][gid])
			case AggAvgF:
				cnt := m.aggI[ai][gid]
				if cnt == 0 {
					v.F64 = append(v.F64, 0)
				} else {
					v.F64 = append(v.F64, m.aggF[ai][gid]/float64(cnt))
				}
			case AggCountDistinctI:
				v.I64 = append(v.I64, int64(len(m.dist[ai][gid])))
			case AggMinStr:
				v.Str = append(v.Str, m.aggStr[ai][gid])
			}
		}
	}
	b.N = end - start
	if ctx.SourceRows != nil {
		ctx.SourceRows.Add(int64(b.N))
	}
	out.Process(ctx, b)
}
