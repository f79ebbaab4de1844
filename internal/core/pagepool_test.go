package core_test

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/spill"
	"partitionjoin/internal/storage"
)

// These tests drive the radix join and the BHJ through the planner (hence the
// external test package) with the page pools' poison hook on: a page, a
// directory or a link array that is put twice, or read after it was put,
// shows up as a wrong join result.

var allKinds = []core.JoinKind{
	core.Inner, core.Semi, core.Anti, core.Mark,
	core.LeftOuter, core.RightOuter, core.LeftSemi, core.LeftAnti,
}

// strTables builds join inputs with an integer and a string payload per
// side. Keys repeat on both sides and some have no partner; bval == pval
// for a share of the key-equal pairs, so the residual predicate bites.
func strTables(nBuild, nProbe int, keyRange int64) (build, probe *storage.Table) {
	mk := func(name, key, val, str string, n int, mul int64) *storage.Table {
		t := storage.NewTable(name, storage.NewSchema(
			storage.ColumnDef{Name: key, Type: storage.Int64},
			storage.ColumnDef{Name: val, Type: storage.Int64},
			storage.ColumnDef{Name: str, Type: storage.String, StrCap: 14},
		), n)
		kc, vc := t.Cols[0].(*storage.Int64Column), t.Cols[1].(*storage.Int64Column)
		sc := t.Cols[2].(*storage.StringColumn)
		for i := 0; i < n; i++ {
			k := int64(i) * mul % keyRange
			kc.Values = append(kc.Values, k)
			vc.Values = append(vc.Values, int64(i)%3)
			sc.AppendString(fmt.Sprintf("%s-%d", name[:1], i))
		}
		return t
	}
	return mk("build", "key", "bval", "bstr", nBuild, 7), mk("probe", "fkey", "pval", "pstr", nProbe, 11)
}

// strJoin joins the two tables on key = fkey where bval <> pval. With strs
// the string columns ride along as payload; pages whose rows carry strings
// are not recycled after the join (RadixJoin.retire, HashJoin.Release), so
// the integer-only shape is the one that exercises that reuse.
func strJoin(build, probe *storage.Table, kind core.JoinKind, strs bool) *plan.JoinNode {
	j := &plan.JoinNode{
		ID: 1, Kind: kind,
		Build:      plan.Scan(build, "key", "bval", "bstr"),
		Probe:      plan.Scan(probe, "fkey", "pval", "pstr"),
		BuildKeys:  []string{"key"},
		ProbeKeys:  []string{"fkey"},
		BuildPay:   []string{"bval"},
		ProbePay:   []string{"fkey", "pval"},
		ResidualNe: [][2]string{{"bval", "pval"}},
	}
	if strs {
		j.BuildPay = append(j.BuildPay, "bstr")
		j.ProbePay = append(j.ProbePay, "pstr")
	}
	if kind == core.Mark {
		j.MarkName = "hit"
	}
	return j
}

// sortedRows renders a result as sorted text rows.
func sortedRows(res *plan.ExecResult) []string {
	r := res.Result
	rows := make([]string, r.NumRows())
	for i := range rows {
		var sb strings.Builder
		for c := range r.Vecs {
			switch v := &r.Vecs[c]; v.T {
			case storage.String:
				fmt.Fprintf(&sb, "%q|", v.Str[i])
			case storage.Float64:
				fmt.Fprintf(&sb, "%v|", v.F64[i])
			default:
				fmt.Fprintf(&sb, "%d|", v.I64[i])
			}
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

func joinOpts(algo plan.JoinAlgo) plan.Options {
	o := plan.DefaultOptions()
	o.Algo = algo
	o.Workers = 4
	return o
}

// TestRadixPathsMatchBHJ is the differential over the join-phase code path:
// single-pass, forced two-pass (a cache budget far below the build side),
// Bloom-filtered, spilling, and the adaptive BHJ->radix migration all equal
// the plain BHJ for every join kind, with string payloads and a residual;
// the two resident paths also with integer payloads, whose join-phase pages
// go back to the pool while other partitions are still being joined.
func TestRadixPathsMatchBHJ(t *testing.T) {
	defer pagepool.Poison()()
	build, probe := strTables(30000, 60000, 40000)
	type variant struct {
		name   string
		algo   plan.JoinAlgo
		ints   bool  // integer payloads only
		cache  int   // Core.CacheBudget; 0 keeps the default
		budget int64 // MemBudget with a spill directory; 0 = none
		check  func(t *testing.T, res *plan.ExecResult)
	}
	spilled := func(t *testing.T, res *plan.ExecResult) {
		if res.Spill.Partitions == 0 {
			t.Errorf("nothing spilled (peak %d B): %v", res.MemPeak, res.Degraded)
		}
	}
	migrated := func(t *testing.T, res *plan.ExecResult) {
		if res.Adapt.Migrations == 0 {
			t.Errorf("build did not migrate: %+v", res.Adapt)
		}
	}
	variants := []variant{
		{name: "RJ one pass", algo: plan.RJ},
		{name: "RJ two passes", algo: plan.RJ, cache: 4 << 10},
		{name: "BRJ one pass", algo: plan.BRJ},
		{name: "BRJ two passes", algo: plan.BRJ, cache: 4 << 10},
		{name: "RJ one pass spilling", algo: plan.RJ, budget: 256 << 10, check: spilled},
		{name: "RJ two passes spilling", algo: plan.RJ, cache: 4 << 10, budget: 256 << 10, check: spilled},
		{name: "BHJ migrating", algo: plan.BHJ, budget: 256 << 10, check: migrated},
		{name: "RJ one pass, integers", algo: plan.RJ, ints: true},
		{name: "RJ two passes, integers", algo: plan.RJ, ints: true, cache: 4 << 10},
	}
	for _, kind := range allKinds {
		nodes, wants := map[bool]plan.Node{}, map[bool][]string{}
		for _, ints := range []bool{false, true} {
			nodes[ints] = strJoin(build, probe, kind, !ints)
			ref, err := plan.ExecuteErr(context.Background(), joinOpts(plan.BHJ), nodes[ints])
			if err != nil {
				t.Fatal(err)
			}
			if wants[ints] = sortedRows(ref); len(wants[ints]) == 0 {
				t.Fatalf("%v: empty reference; the comparison would be vacuous", kind)
			}
		}
		for _, v := range variants {
			node, want := nodes[v.ints], wants[v.ints]
			t.Run(kind.String()+"/"+v.name, func(t *testing.T) {
				opts := joinOpts(v.algo)
				if v.cache > 0 {
					opts.Core.CacheBudget = v.cache
				}
				if v.budget > 0 {
					opts.MemBudget, opts.SpillDir = v.budget, t.TempDir()
				}
				res, err := plan.ExecuteErr(context.Background(), opts, node)
				if err != nil {
					t.Fatal(err)
				}
				if v.check != nil {
					v.check(t, res)
				}
				if got := sortedRows(res); !slices.Equal(got, want) {
					t.Fatalf("%d rows, want %d (or same count, different rows)", len(got), len(want))
				}
			})
		}
	}
}

// TestConcurrentQueriesShareThePagePool runs radix joins side by side over
// one page pool while some of them are cancelled in the middle of
// partitioning and of the join phase. A cancelled query hands its pages back
// while its neighbours are taking pages; every query that completes must
// still equal its reference.
func TestConcurrentQueriesShareThePagePool(t *testing.T) {
	defer pagepool.Poison()()
	build, probe := strTables(30000, 120000, 40000)
	node := strJoin(build, probe, core.Inner, false)
	opts := joinOpts(plan.RJ)
	opts.Workers = 2
	ref, err := plan.ExecuteErr(context.Background(), joinOpts(plan.BHJ), node)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(ref)

	// cancelIn cancels a query as soon as its meter shows a phase with the
	// given prefix open.
	cancelIn := func(m *meter.Meter, prefix string, cancel context.CancelFunc, done <-chan struct{}) {
		for {
			select {
			case <-done:
				return
			default:
			}
			if ph := m.Phases(); len(ph) > 0 && strings.HasPrefix(ph[len(ph)-1].Name, prefix) {
				cancel()
				return
			}
			runtime.Gosched()
		}
	}
	const rounds, queries = 3, 6
	var cancelled int
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for q := 0; q < queries; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				o := opts
				done, watched := make(chan struct{}), make(chan struct{})
				if phase := []string{"", "partition pass 1 (probe)", "join+"}[q%3]; phase != "" {
					o.Meter = meter.New()
					go func() {
						defer close(watched)
						cancelIn(o.Meter, phase, cancel, done)
					}()
				} else {
					close(watched)
				}
				res, err := plan.ExecuteErr(ctx, o, node)
				close(done)
				<-watched
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil && q%3 == 0:
					t.Errorf("query %d failed: %v", q, err)
				case err != nil:
					cancelled++
				case !slices.Equal(sortedRows(res), want):
					t.Errorf("query %d: wrong result next to cancelled neighbours", q)
				}
			}(q)
		}
		wg.Wait()
	}
	if cancelled == 0 {
		t.Error("no query was cancelled mid-flight; the test exercised nothing")
	}
}

// TestJoinedStringsOutliveThePartition puts a radix join under a BHJ probe,
// which buffers its output — string slices into the radix join's partition
// rows included — across many partition pairs before it flushes: those rows
// must stay intact after their partition has been joined.
func TestJoinedStringsOutliveThePartition(t *testing.T) {
	defer pagepool.Poison()()
	build, probe := strTables(30000, 60000, 40000)
	few, _ := strTables(500, 1, 40000)
	under := func(lower plan.JoinAlgo) plan.Node {
		inner := strJoin(build, probe, core.Inner, true)
		inner.Algo, inner.HasAlgo = lower, true
		return &plan.JoinNode{
			ID: 2, Kind: core.Inner, Algo: plan.BHJ, HasAlgo: true,
			Build: plan.Scan(few, "key"), Probe: inner,
			BuildKeys: []string{"key"}, ProbeKeys: []string{"fkey"},
			ProbePay: []string{"bstr", "pstr", "pval"},
		}
	}
	opts := joinOpts(plan.BHJ)
	ref, err := plan.ExecuteErr(context.Background(), opts, under(plan.BHJ))
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(ref)
	if len(want) == 0 {
		t.Fatal("empty reference; the comparison would be vacuous")
	}
	res, err := plan.ExecuteErr(context.Background(), opts, under(plan.RJ))
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(res); !slices.Equal(got, want) {
		t.Fatalf("%d rows, want %d (or same count, different rows): e.g. %.60s", len(got), len(want), got[0])
	}
}

// TestBHJMatchesRadixJoinOnPooledPages is the differential over the BHJ's
// pooled build pages, directory and links: for every join kind, with integer
// payloads (whose pages go back to the pool after each query) and string
// payloads, on one and two workers, three BHJ runs in a row equal the radix
// join. The build side spans a few dozen pages; LeftOuter, LeftSemi and
// LeftAnti read them again after the probe.
func TestBHJMatchesRadixJoinOnPooledPages(t *testing.T) {
	defer pagepool.Poison()()
	build, probe := strTables(30000, 60000, 40000)
	for _, kind := range allKinds {
		for _, ints := range []bool{true, false} {
			node := strJoin(build, probe, kind, !ints)
			ref, err := plan.ExecuteErr(context.Background(), joinOpts(plan.RJ), node)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedRows(ref)
			if len(want) == 0 {
				t.Fatalf("%v: empty reference; the comparison would be vacuous", kind)
			}
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%v/ints=%v/workers=%d", kind, ints, workers), func(t *testing.T) {
					opts := joinOpts(plan.BHJ)
					opts.Workers = workers
					for run := 0; run < 3; run++ {
						res, err := plan.ExecuteErr(context.Background(), opts, node)
						if err != nil {
							t.Fatal(err)
						}
						if got := sortedRows(res); !slices.Equal(got, want) {
							t.Fatalf("run %d: %d rows, want %d (or same count, different rows)", run, len(got), len(want))
						}
					}
				})
			}
		}
	}
}

// keepStrs is an operator downstream of a join that holds on to the string
// slices of column 0 it is given, without copying them.
type keepStrs struct{ strs [][]byte }

func (o *keepStrs) Process(_ *exec.Ctx, b *exec.Batch) {
	o.strs = append(o.strs, b.Vecs[0].Str[:b.N]...)
}

func (o *keepStrs) Flush(*exec.Ctx) {}

// TestBHJStringsOutliveTheTable is TestJoinedStringsOutliveThePartition for
// the BHJ: the probe emits a string build column as slices into the build
// pages, and whatever holds them keeps them after the query released its
// table, so those pages must never go back to the pool.
func TestBHJStringsOutliveTheTable(t *testing.T) {
	defer pagepool.Poison()()
	const n = 20000 // ten pages of 32-byte rows
	build := exec.NewBatch([]storage.Type{storage.Int64, storage.String}, []int{0, 15})
	probe := exec.NewBatch([]storage.Type{storage.Int64}, nil)
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("s%d", i)
		build.Vecs[0].I64 = append(build.Vecs[0].I64, int64(i))
		build.Vecs[1].Str = append(build.Vecs[1].Str, []byte(want[i]))
		probe.Vecs[0].I64 = append(probe.Vecs[0].I64, int64(i))
	}
	build.N, probe.N = n, n
	j := &core.HashJoin{
		Kind: core.Inner, Layout: core.LayoutFor(build, []int{0, 1}, []int{0}),
		BuildCols: []int{0, 1}, BuildKeyCols: []int{0}, BuildHashCol: -1,
		ProbeKeyCols: []int{0}, ProbeHashCol: -1, BuildOut: []int{1},
	}
	ctx := &exec.Ctx{Workers: 1}
	sink := j.BuildSink()
	sink.Open(1)
	sink.Consume(ctx, build)
	sink.Close()
	kept := &keepStrs{}
	op := j.ProbeOp(kept)
	op.Process(ctx, probe)
	op.Flush(ctx)
	j.Release()
	got := make([]string, len(kept.strs))
	for i, s := range kept.strs {
		got[i] = string(s)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%d strings kept, want %d (or same count, different strings)", len(got), n)
	}
}

// TestBHJReturnsEveryPageOnce traces every pooled buffer — build pages,
// directory, links — through a BHJ that completes, one cancelled mid-probe
// and one whose probe panics: each buffer the query took goes back to its
// pool exactly once, however the query ended. Integer payloads, so no page
// is left to the garbage collector.
func TestBHJReturnsEveryPageOnce(t *testing.T) {
	faultinject.FailOnLeak(t)
	defer pagepool.Poison()()
	build, probe := strTables(30000, 4*storage.MorselSize, 40000)
	// Morsel visits: one for the build side, then the probe morsels; the
	// fault fires on the second probe morsel, with the first one probed.
	const midProbe = 2
	for _, kind := range []core.JoinKind{core.Inner, core.LeftOuter} {
		node := strJoin(build, probe, kind, false)
		for _, end := range []string{"completes", "cancelled", "panics"} {
			t.Run(kind.String()+"/"+end, func(t *testing.T) {
				opts := joinOpts(plan.BHJ)
				opts.Workers = 2
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				switch end {
				case "cancelled":
					faultinject.Arm(t, exec.MorselSite, faultinject.Fault{
						Kind: faultinject.Stall, Stall: time.Minute, After: midProbe})
					go func() {
						for faultinject.Triggers(exec.MorselSite) == 0 && ctx.Err() == nil {
							time.Sleep(time.Millisecond)
						}
						cancel()
					}()
				case "panics":
					faultinject.Arm(t, exec.MorselSite, faultinject.Fault{
						Kind: faultinject.Panic, After: midProbe, Once: true})
				}
				stop := pagepool.Trace()
				_, err := plan.ExecuteErr(ctx, opts, node)
				bad, out := stop()
				if (err == nil) != (end == "completes") {
					t.Fatalf("query %s with error %v", end, err)
				}
				if bad != 0 || out != 0 {
					t.Fatalf("%d buffers handed out twice or put back unheld, %d never put back", bad, out)
				}
			})
		}
	}
}

// groupByScan groups the probe table by its key and a payload column: up to
// 40 000 groups, so every worker's table grows many times. With strs the
// payload is the string column, and MIN over it keeps strings too.
func groupByScan(probe *storage.Table, strs bool) plan.Node {
	aggs := []plan.AggExpr{{Kind: exec.AggCount, As: "n"}, {Kind: exec.AggSumI, Col: "pval", As: "s"},
		{Kind: exec.AggAvgF, Col: "pval", As: "a"}}
	if strs {
		aggs = append(aggs, plan.AggExpr{Kind: exec.AggMinStr, Col: "pstr", As: "m"})
		return plan.GroupBy(plan.Scan(probe, "fkey", "pval", "pstr"), []string{"fkey", "pstr"}, aggs...)
	}
	return plan.GroupBy(plan.Scan(probe, "fkey", "pval"), []string{"fkey", "pval"}, aggs...)
}

// TestEveryQueryHandsBackItsPages is the conservation property of the page
// pools: however a query ends — it completes, fails on an allocation or a
// disk fault, is cancelled, or panics — every page it took leaves the pools'
// books exactly once, put back or (rows with strings that a result may
// point into) forgotten, so every size class has as many pages out after
// the query as before it. BHJ, RJ in one and in two passes, BRJ and a
// spilling RJ, each with integer and with string payloads, and a group-by
// over integer and over string keys.
func TestEveryQueryHandsBackItsPages(t *testing.T) {
	faultinject.FailOnLeak(t)
	defer pagepool.Poison()()
	build, probe := strTables(30000, 4*storage.MorselSize, 40000)
	type ending struct {
		name   string
		site   string
		fault  faultinject.Fault
		cancel bool // cancel the query once the fault has fired
	}
	// Morsel visits: one for the build side, then the probe morsels; the
	// faults fire on the second probe morsel, with the first one through.
	const midProbe = 2
	for _, shape := range []struct {
		name    string
		algo    plan.JoinAlgo
		twoPass bool // a cache budget far below the build side
		spill   bool
		groupBy bool // a group-by over the probe table instead of a join
	}{
		{name: "BHJ", algo: plan.BHJ},
		{name: "RJ", algo: plan.RJ},
		{name: "RJ two passes", algo: plan.RJ, twoPass: true},
		{name: "BRJ", algo: plan.BRJ},
		{name: "RJ spilling", algo: plan.RJ, spill: true},
		{name: "group-by", algo: plan.BHJ, groupBy: true},
	} {
		for _, ints := range []bool{true, false} {
			var node plan.Node = strJoin(build, probe, core.Inner, !ints)
			if shape.groupBy {
				node = groupByScan(probe, !ints)
			}
			opts := joinOpts(shape.algo)
			opts.Workers = 2
			if shape.twoPass {
				opts.Core.CacheBudget = 4 << 10
			}
			if shape.spill {
				opts.MemBudget, opts.SpillDir = 256<<10, t.TempDir()
			}
			// A counting run places the allocation failures early, midway
			// and late among the query's governor grants.
			faultinject.Enable(govern.GrantSite, faultinject.Fault{Kind: faultinject.Stall})
			_, err := plan.ExecuteErr(context.Background(), opts, node)
			grants := faultinject.Triggers(govern.GrantSite)
			faultinject.Disable(govern.GrantSite)
			if err != nil {
				t.Fatal(err)
			}
			endings := []ending{{name: "completes"}}
			for _, at := range []struct {
				name  string
				grant int64
			}{{"early", grants / 8}, {"midway", grants / 2}, {"late", grants * 7 / 8}} {
				endings = append(endings, ending{name: "allocation fails " + at.name, site: govern.GrantSite,
					fault: faultinject.Fault{Kind: faultinject.Fail, After: at.grant}})
			}
			// A group-by has no build side: its faults fire on the third
			// morsel it aggregates, with two through.
			mid := "mid-probe"
			if shape.groupBy {
				mid = "mid-aggregate"
			}
			endings = append(endings,
				ending{name: "cancelled " + mid, site: exec.MorselSite, cancel: true,
					fault: faultinject.Fault{Kind: faultinject.Stall, Stall: time.Minute, After: midProbe}},
				ending{name: "panics " + mid, site: exec.MorselSite,
					fault: faultinject.Fault{Kind: faultinject.Panic, After: midProbe, Once: true}})
			if shape.algo != plan.BHJ {
				// The join phase stalls without watching the context: each
				// partition task past the third waits a little, and the
				// cancellation lands during the first of them.
				slow := faultinject.Fault{Kind: faultinject.Stall, Stall: 20 * time.Millisecond, After: 3}
				endings = append(endings,
					ending{name: "cancelled mid-join", site: core.JoinEmitSite, fault: slow, cancel: true},
					ending{name: "panics mid-join", site: core.JoinEmitSite,
						fault: faultinject.Fault{Kind: faultinject.Panic, After: 3, Once: true}})
			}
			if shape.spill {
				endings = append(endings,
					ending{name: "fails on a corrupt frame", site: spill.CorruptSite,
						fault: faultinject.Fault{Kind: faultinject.Fail, Once: true}},
					ending{name: "panics mid-reload", site: core.ReloadSite,
						fault: faultinject.Fault{Kind: faultinject.Panic, Once: true}})
			}
			for _, end := range endings {
				t.Run(fmt.Sprintf("%s/ints=%v/%s", shape.name, ints, end.name), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					if end.site != "" {
						faultinject.Arm(t, end.site, end.fault)
					}

					if end.cancel {
						go func() {
							for faultinject.Triggers(end.site) == 0 && ctx.Err() == nil {
								time.Sleep(time.Millisecond)
							}
							cancel()
						}()
					}
					before := pagepool.Out()
					stop := pagepool.Trace()
					_, err := plan.ExecuteErr(ctx, opts, node)
					for err == nil && end.site == govern.GrantSite && end.fault.After > 0 {
						// A query's grants vary a little with the morsels
						// each worker claims (the BRJ's adaptive filter
						// decides per worker): this one had no grant left
						// to fail, so fail an earlier one.
						end.fault.After /= 2
						faultinject.Enable(end.site, end.fault)
						_, err = plan.ExecuteErr(ctx, opts, node)
					}
					bad, out := stop()
					if (err == nil) != (end.site == "") {
						t.Fatalf("query ended with error %v (fault fired %d times)", err, faultinject.Triggers(end.site))
					}
					if bad != 0 || out != 0 {
						t.Fatalf("%d pages handed out twice or given up unheld, %d never given up", bad, out)
					}
					if after := pagepool.Out(); !maps.Equal(after, before) {
						t.Fatalf("pages out by size class: %v before the query, %v after", before, after)
					}
				})
			}
		}
	}
}

// TestHashJoinSteadyStateAllocation pins what building the BHJ on pooled
// pages buys: once the pools are warm, a BHJ allocates a fraction of its
// build rows, where an arena-and-copy build allocates several times them.
// The pools keep what a query gave back however the scheduler moved its
// workers and whenever the garbage collector ran, so what is left (about
// 150 KB a run) is a tenth of the bound, and an arena-and-copy build (about
// 31 MB) fails it by 20x.
func TestHashJoinSteadyStateAllocation(t *testing.T) {
	const nBuild, nProbe, rowSize = 200000, 200000, 32 // hash, key, payload: 24 B padded to 32
	root := countJoin(nBuild, nProbe)
	opts := joinOpts(plan.BHJ)
	opts.Workers = 2
	perRun, _ := steadyAlloc(t, opts, root, nProbe)
	rows := uint64(nBuild * rowSize)
	if limit := rows / 4; perRun > limit {
		t.Fatalf("steady-state BHJ allocates %d B per run, want <= %d B (a quarter of the build rows' %d B)",
			perRun, limit, rows)
	}
}

// TestRadixJoinSteadyStateAllocation pins what recycling partition pages
// buys: once the pool is warm, a radix join allocates a fraction of its
// partitions, not both sides' partitions over again. A quarter of both
// sides' partition bytes fails by 4x a join that re-allocates every page.
func TestRadixJoinSteadyStateAllocation(t *testing.T) {
	const nBuild, nProbe, rowSize = 20000, 320000, 32 // hash, key, payload: 24 B padded to 32
	opts := joinOpts(plan.RJ)
	opts.Workers = 2
	perRun, _ := steadyAlloc(t, opts, countJoin(nBuild, nProbe), nProbe)
	both := uint64((nBuild + nProbe) * rowSize)
	if limit := both / 4; perRun > limit {
		t.Fatalf("steady-state radix join allocates %d B per run, want <= %d B (a quarter of both sides' %d B)",
			perRun, limit, both)
	}
}

// TestSpillSteadyStateAllocation pins the spill path on pooled pages: once
// the pools are warm, a radix join that spills most of both sides and reads
// them back allocates a small share of the bytes it reloads. Each spilled
// build side is read straight into a pooled reload buffer and each probe
// run into one pooled frame buffer; a reader that grows a private buffer
// per run and copies the build frames into a fresh one allocates about as
// many bytes as it reloads.
func TestSpillSteadyStateAllocation(t *testing.T) {
	const nBuild, nProbe = 60000, 240000
	opts := joinOpts(plan.RJ)
	opts.Workers = 2
	opts.MemBudget, opts.SpillDir = 256<<10, t.TempDir()
	perRun, res := steadyAlloc(t, opts, countJoin(nBuild, nProbe), nProbe)
	reloaded := uint64(res.Spill.ReloadedBytes)
	if reloaded == 0 {
		t.Fatalf("nothing was reloaded (peak %d B): %v", res.MemPeak, res.Degraded)
	}
	if limit := reloaded / 5; perRun > limit {
		t.Fatalf("steady-state spilling radix join allocates %d B per run, want <= %d B (a fifth of the %d B it reloads)",
			perRun, limit, reloaded)
	}
}

// countJoin counts the matches of an integer key-payload join where every
// probe row has exactly one build partner.
func countJoin(nBuild, nProbe int) plan.Node {
	intTable := func(name string, n int) *storage.Table {
		t := storage.NewTable(name, storage.NewSchema(
			storage.ColumnDef{Name: "k", Type: storage.Int64},
			storage.ColumnDef{Name: "v", Type: storage.Int64},
		), n)
		kc, vc := t.Cols[0].(*storage.Int64Column), t.Cols[1].(*storage.Int64Column)
		for i := 0; i < n; i++ {
			kc.Values = append(kc.Values, int64(i%nBuild))
			vc.Values = append(vc.Values, int64(i))
		}
		return t
	}
	build, probe := intTable("build", nBuild), intTable("probe", nProbe)
	return plan.GroupBy(&plan.JoinNode{
		ID: 1, Kind: core.Inner,
		Build: plan.Scan(build, "k", "v"), Probe: plan.Scan(probe, "k", "v"),
		BuildKeys: []string{"k"}, ProbeKeys: []string{"k"}, BuildPay: []string{"v"},
	}, nil, plan.AggExpr{Kind: exec.AggCount, As: "n"})
}

// steadyAlloc runs root once to fill the page pools, then reports the bytes
// each of five further runs allocates, checking each count is want, and
// the last run's result.
func steadyAlloc(t *testing.T, opts plan.Options, root plan.Node, want int64) (uint64, *plan.ExecResult) {
	t.Helper()
	var res *plan.ExecResult
	run := func() {
		var err error
		if res, err = plan.ExecuteErr(context.Background(), opts, root); err != nil {
			t.Fatal(err)
		}
		if n := res.Result.Vecs[0].I64[0]; n != want {
			t.Fatalf("count %d, want %d", n, want)
		}
	}
	run() // fills the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, res
}
