package exec

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"testing"

	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/storage"
)

// Input columns of the group-by property test: four grouping keys of every
// lane (an int64, a float64, a string and a dictionary code), then the
// aggregated values.
const (
	colIK = iota
	colFK
	colSK
	colDK
	colV  // int64 value
	colFV // float64 value
	colD  // small int64, for COUNT(DISTINCT)
	colS  // string value, for MIN
)

var groupByTestTypes = []storage.Type{
	storage.Int64, storage.Float64, storage.String, storage.Int32,
	storage.Int64, storage.Float64, storage.Int64, storage.String,
}

// everyAgg is one aggregate of every kind over the test's value columns.
var everyAgg = []AggSpec{
	{Kind: AggCount, Col: -1},
	{Kind: AggSumI, Col: colV},
	{Kind: AggSumF, Col: colFV},
	{Kind: AggMinI, Col: colV},
	{Kind: AggMaxI, Col: colV},
	{Kind: AggMinF, Col: colFV},
	{Kind: AggMaxF, Col: colFV},
	{Kind: AggAvgF, Col: colV},
	{Kind: AggCountDistinctI, Col: colD},
	{Kind: AggMinStr, Col: colS},
}

// Float keys whose bit patterns differ although some compare equal (+0 and
// -0) or unequal to themselves (NaNs): each is a group of its own.
var floatKeys = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
}

// groupByRows generates rows over nGroups distinct keys in random order,
// each group with one to four rows. Group g's key is (g/12, floatKeys[g/3%4],
// one of three strings — the first empty — by g%3, g%5): distinct per g.
func groupByRows(rng *rand.Rand, nGroups int) *Batch {
	b := NewBatch(groupByTestTypes, []int{0, 0, 16, 0, 0, 0, 0, 8})
	var gs []int
	for g := 0; g < nGroups; g++ {
		for r := 1 + rng.Intn(4); r > 0; r-- {
			gs = append(gs, g)
		}
	}
	rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	for _, g := range gs {
		sk := [3]string{"", "x", fmt.Sprintf("long-%d", g/12%97)}[g%3]
		b.Vecs[colIK].I64 = append(b.Vecs[colIK].I64, int64(g/12)-5000)
		b.Vecs[colFK].F64 = append(b.Vecs[colFK].F64, floatKeys[g/3%4])
		b.Vecs[colSK].Str = append(b.Vecs[colSK].Str, []byte(sk))
		b.Vecs[colDK].I64 = append(b.Vecs[colDK].I64, int64(g%5))
		b.Vecs[colV].I64 = append(b.Vecs[colV].I64, rng.Int63n(2001)-1000)
		// Quarters: every sum is exact, whatever the order of addition.
		b.Vecs[colFV].F64 = append(b.Vecs[colFV].F64, float64(rng.Intn(4001)-2000)/4)
		b.Vecs[colD].I64 = append(b.Vecs[colD].I64, rng.Int63n(5))
		b.Vecs[colS].Str = append(b.Vecs[colS].Str, []byte(fmt.Sprintf("s%d", rng.Intn(50))))
	}
	b.N = len(gs)
	return b
}

// refGroup is the naive reference: one Go map entry per group, every
// aggregate computed the obvious way.
type refGroup struct {
	n, sumI, minI, maxI int64
	sumF, minF, maxF    float64
	dist                map[int64]bool
	minS                string
	hasS                bool
}

// rowKey renders row i's key columns by their bit patterns.
func rowKey(vecs []Vector, keys []int, i int) string {
	var s string
	for _, k := range keys {
		switch v := &vecs[k]; v.T {
		case storage.String:
			s += fmt.Sprintf("%q|", v.Str[i])
		case storage.Float64:
			s += fmt.Sprintf("%x|", math.Float64bits(v.F64[i]))
		default:
			s += fmt.Sprintf("%d|", v.I64[i])
		}
	}
	return s
}

func refAggregate(b *Batch, keys []int) map[string]*refGroup {
	ref := map[string]*refGroup{}
	for i := 0; i < b.N; i++ {
		k := rowKey(b.Vecs, keys, i)
		r := ref[k]
		if r == nil {
			r = &refGroup{minI: math.MaxInt64, maxI: math.MinInt64, minF: math.Inf(1), maxF: math.Inf(-1),
				dist: map[int64]bool{}}
			ref[k] = r
		}
		v, fv, s := b.Vecs[colV].I64[i], b.Vecs[colFV].F64[i], string(b.Vecs[colS].Str[i])
		r.n++
		r.sumI += v
		r.sumF += fv
		r.minI, r.maxI = min(r.minI, v), max(r.maxI, v)
		r.minF, r.maxF = min(r.minF, fv), max(r.maxF, fv)
		r.dist[b.Vecs[colD].I64[i]] = true
		if !r.hasS || s < r.minS {
			r.minS, r.hasS = s, true
		}
	}
	return ref
}

// checkAgg compares output row i's aggregate columns, starting at column
// off, with the reference group.
func checkAgg(t *testing.T, out *Batch, off, i int, r *refGroup) {
	t.Helper()
	avg := 0.0
	if r.n > 0 {
		avg = float64(r.sumI) / float64(r.n)
	}
	want := []any{r.n, r.sumI, r.sumF, r.minI, r.maxI, r.minF, r.maxF, avg, int64(len(r.dist)), r.minS}
	for ai, a := range everyAgg {
		var got any
		switch v := &out.Vecs[off+ai]; a.OutType() {
		case storage.Int64:
			got = v.I64[i]
		case storage.Float64:
			got = v.F64[i]
		default:
			got = string(v.Str[i])
		}
		if got != want[ai] {
			t.Fatalf("row %d, aggregate %d (kind %d): %v, want %v", i, ai, a.Kind, got, want[ai])
		}
	}
}

// runGroupBy feeds the rows to a sink over the given workers, each worker a
// goroutine consuming every workers-th slice of 1 000 rows, and closes it.
func runGroupBy(g *GroupBySink, in *Batch, workers int) {
	g.Open(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := &Ctx{Worker: w, Workers: workers}
			b := NewBatch(groupByTestTypes, []int{0, 0, 16, 0, 0, 0, 0, 8})
			for lo := w * 1000; lo < in.N; lo += workers * 1000 {
				sliceRows(b, in, lo, min(lo+1000, in.N))
				g.Consume(ctx, b)
			}
		}(w)
	}
	wg.Wait()
	g.Close()
}

// sliceRows sets b to rows [lo, hi) of in.
func sliceRows(b, in *Batch, lo, hi int) {
	for c := range b.Vecs {
		v, iv := &b.Vecs[c], &in.Vecs[c]
		switch v.T {
		case storage.String:
			v.Str = append(v.Str[:0], iv.Str[lo:hi]...)
		case storage.Float64:
			v.F64 = append(v.F64[:0], iv.F64[lo:hi]...)
		default:
			v.I64 = append(v.I64[:0], iv.I64[lo:hi]...)
		}
	}
	b.N = hi - lo
}

// emitAll drains the sink's source into one batch.
func emitAll(g *GroupBySink) *Batch {
	ts, caps := g.OutTypes()
	all := NewBatch(ts, caps)
	src := g.Source()
	ctx := &Ctx{Workers: 1}
	for task := 0; task < src.Tasks(); task++ {
		src.Emit(ctx, task, &funcOp{fn: func(b *Batch) {
			for c := range b.Vecs {
				v, av := &b.Vecs[c], &all.Vecs[c]
				av.I64 = append(av.I64, v.I64...)
				av.F64 = append(av.F64, v.F64...)
				av.Str = append(av.Str, v.Str...)
			}
			all.N += b.N
		}})
	}
	return all
}

// TestGroupByMatchesNaiveReference is the group-by's property test: on
// keys of every lane — +0 and -0 and two NaN payloads apart, the empty
// string among the strings — over 120 000 groups, so each worker's
// directory doubles a dozen times, every aggregate kind on one to four
// workers equals a map-based reference, with poisoned pages; afterwards
// every page is back in the pool. The same rows without keys, and no rows
// at all without keys, give the one global row.
func TestGroupByMatchesNaiveReference(t *testing.T) {
	defer pagepool.Poison()()
	const nGroups = 120000
	in := groupByRows(rand.New(rand.NewSource(54)), nGroups)
	keys := []int{colIK, colFK, colSK, colDK}
	ref := refAggregate(in, keys)
	global := refAggregate(in, nil)[""]
	if len(ref) != nGroups {
		t.Fatalf("reference has %d groups, want %d", len(ref), nGroups)
	}
	for workers := 1; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			outBefore, bytesBefore := pagepool.Out(), pagepool.Snapshot().OutBytes
			gov := govern.New(0)
			g := &GroupBySink{Keys: keys, Aggs: everyAgg, Gov: gov,
				KeyTypes: []storage.Type{storage.Int64, storage.Float64, storage.String, storage.Int32},
				KeyCaps:  []int{0, 0, 16, 0}}
			runGroupBy(g, in, workers)
			out := emitAll(g)
			if out.N != nGroups {
				t.Fatalf("%d groups, want %d", out.N, nGroups)
			}
			seen := map[string]bool{}
			for i := 0; i < out.N; i++ {
				k := rowKey(out.Vecs, []int{0, 1, 2, 3}, i)
				r := ref[k]
				if r == nil || seen[k] {
					t.Fatalf("row %d: key %s is not a reference group, or appears twice", i, k)
				}
				seen[k] = true
				checkAgg(t, out, len(keys), i, r)
			}
			if gov.Peak() == 0 {
				t.Error("the tables charged nothing to the governor")
			}
			g.Release()
			g.Release()
			if after := pagepool.Out(); !maps.Equal(after, outBefore) {
				t.Fatalf("pages out by size class: %v before, %v after Release", outBefore, after)
			}
			if after := pagepool.Snapshot().OutBytes; after != bytesBefore {
				t.Fatalf("pool out_bytes %d before, %d after Release", bytesBefore, after)
			}
			if gov.Used() != 0 {
				t.Fatalf("%d bytes still charged after Release", gov.Used())
			}

			for _, empty := range []bool{false, true} {
				g := &GroupBySink{Aggs: everyAgg}
				want := global
				if empty {
					g.Open(workers)
					g.Close()
					want = &refGroup{minI: math.MaxInt64, maxI: math.MinInt64, minF: math.Inf(1), maxF: math.Inf(-1)}
				} else {
					runGroupBy(g, in, workers)
				}
				out := emitAll(g)
				if out.N != 1 {
					t.Fatalf("global aggregate (empty input %v): %d rows, want 1", empty, out.N)
				}
				checkAgg(t, out, 0, 0, want)
				g.Release()
			}
			if after := pagepool.Out(); !maps.Equal(after, outBefore) {
				t.Fatalf("pages out by size class: %v before, %v after the global aggregates", outBefore, after)
			}
		})
	}
}

// TestGroupByFailedGrantLeavesNoPage fails each of a two-worker group-by's
// governor grants in turn — a new table, a growth, an arena chunk, a
// growth of the merged table while it folds — and checks that Release
// still finds every page the sink took.
func TestGroupByFailedGrantLeavesNoPage(t *testing.T) {
	faultinject.FailOnLeak(t)
	in := groupByRows(rand.New(rand.NewSource(7)), 3000)
	run := func() (failed any) {
		defer func() { failed = recover() }()
		g := &GroupBySink{Keys: []int{colIK, colSK}, Aggs: everyAgg, Gov: govern.New(0),
			KeyTypes: []storage.Type{storage.Int64, storage.String}, KeyCaps: []int{0, 16}}
		defer g.Release()
		g.Open(2)
		ctxs := [2]*Ctx{{Worker: 0, Workers: 2}, {Worker: 1, Workers: 2}}
		b := NewBatch(groupByTestTypes, []int{0, 0, 16, 0, 0, 0, 0, 8})
		for lo := 0; lo < in.N; lo += 1000 {
			sliceRows(b, in, lo, min(lo+1000, in.N))
			g.Consume(ctxs[lo/1000%2], b)
		}
		g.Close()
		return nil
	}
	faultinject.Enable(govern.GrantSite, faultinject.Fault{Kind: faultinject.Stall})
	run()
	grants := faultinject.Triggers(govern.GrantSite)
	faultinject.Disable(govern.GrantSite)
	if grants < 10 {
		t.Fatalf("only %d grants; the tables did not grow", grants)
	}
	before := pagepool.Out()
	for k := int64(0); k < grants; k++ {
		faultinject.Enable(govern.GrantSite, faultinject.Fault{Kind: faultinject.Fail, After: k, Once: true})
		failed := run()
		faultinject.Disable(govern.GrantSite)
		if failed == nil {
			t.Fatalf("grant %d of %d: the group-by did not fail", k, grants)
		}
		if after := pagepool.Out(); !maps.Equal(after, before) {
			t.Fatalf("grant %d of %d failed: pages out %v before, %v after Release", k, grants, before, after)
		}
	}
}
