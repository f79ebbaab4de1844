package plan

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"partitionjoin/internal/adapt"
	"partitionjoin/internal/admit"
	"partitionjoin/internal/core"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/storage"
)

// adaptOpts arms the runtime escape hatch: a BHJ plan under a budget with a
// spill directory to migrate into. (Mirrors spillOpts, which arms the
// static spill rung with a radix plan instead.)
func adaptOpts(budget int64, parent string) Options {
	o := optsWith(BHJ)
	o.Workers = 4
	o.MemBudget = budget
	o.SpillDir = parent
	return o
}

// allKinds is every join kind the engine implements; the differential
// tests pin adaptive == static for each one.
var allKinds = []core.JoinKind{
	core.Inner, core.Semi, core.Anti, core.Mark,
	core.LeftOuter, core.RightOuter, core.LeftSemi, core.LeftAnti,
}

// hotTables builds a join input with key-multiplicity skew: one hot key
// carries nHot build rows, the rest are distinct. Unlike skewTables (whose
// pass-1 skew the second partitioning pass spreads right back out), a hot
// KEY cannot be spread by more fan-out bits — every copy hashes
// identically — so the resident partition holding it stays oversized and
// the join-time split trigger fires.
func hotTables(nHot, nCold, hotProbes int) (*storage.Table, *storage.Table) {
	const hotKey = int64(7)
	bs := storage.NewSchema(
		storage.ColumnDef{Name: "key", Type: storage.Int64},
		storage.ColumnDef{Name: "bval", Type: storage.Int64},
	)
	build := storage.NewTable("build", bs, nHot+nCold)
	bkey := build.Cols[0].(*storage.Int64Column)
	bval := build.Cols[1].(*storage.Int64Column)
	for i := 0; i < nHot; i++ {
		bkey.Values = append(bkey.Values, hotKey)
		bval.Values = append(bval.Values, int64(i)*3)
	}
	for i := 0; i < nCold; i++ {
		bkey.Values = append(bkey.Values, hotKey+1+int64(i))
		bval.Values = append(bval.Values, int64(nHot+i)*3)
	}
	ps := storage.NewSchema(
		storage.ColumnDef{Name: "fkey", Type: storage.Int64},
		storage.ColumnDef{Name: "pval", Type: storage.Int64},
	)
	probe := storage.NewTable("probe", ps, nCold+hotProbes)
	pkey := probe.Cols[0].(*storage.Int64Column)
	pval := probe.Cols[1].(*storage.Int64Column)
	for i := 0; i < hotProbes; i++ {
		pkey.Values = append(pkey.Values, hotKey)
		pval.Values = append(pval.Values, int64(i)*7)
	}
	for i := 0; i < nCold; i++ {
		pkey.Values = append(pkey.Values, hotKey+1+int64(i))
		pval.Values = append(pval.Values, int64(hotProbes+i)*7)
	}
	return build, probe
}

// staticRows runs the plan with adaptation off and returns its sorted rows
// — the reference side of every differential below.
func staticRows(t *testing.T, opts Options, node Node) [][]int64 {
	t.Helper()
	opts.NoAdapt = true
	res, err := ExecuteErr(context.Background(), opts, node)
	if err != nil {
		t.Fatalf("static run failed: %v", err)
	}
	if res.Adapt.Any() {
		t.Fatalf("NoAdapt run still adapted: %+v", res.Adapt)
	}
	rows := resultRows(res.Result)
	sortRows(rows)
	return rows
}

// Differential over every join kind for the first trigger path: a BHJ
// build that outgrows its budget mid-build migrates to radix partitions
// and must produce the static plan's rows bit-for-bit. The page pools'
// poison hook is on, so a drained build page read after it went back to
// the pool shows up as a wrong answer.
func TestAdaptiveMigrationMatchesStatic(t *testing.T) {
	defer pagepool.Poison()()
	// 60000 build rows x 24 B packed ≈ 1.4 MiB ≈ 5.6x the 256 KiB budget:
	// the projected close-time footprint crosses the budget a few morsels
	// into the build, well before it completes.
	build, probe := makeTables(60000, 120000, 2_000_000, 21)
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			node := joinPlan(build, probe, kind)
			want := staticRows(t, optsWith(BHJ), node)

			parent := t.TempDir()
			opts := adaptOpts(256<<10, parent)
			opts.Stats = NewStatsCollector()
			res, err := ExecuteErr(context.Background(), opts, node)
			if err != nil {
				t.Fatalf("adaptive run failed: %v", err)
			}
			if res.Adapt.Migrations == 0 {
				t.Fatalf("build 5.6x over budget did not migrate: %+v", res.Adapt)
			}
			got := resultRows(res.Result)
			sortRows(got)
			if !rowsEqual(got, want) {
				t.Fatalf("adaptive result diverged from static: %d rows, want %d", len(got), len(want))
			}
			joins := opts.Stats.Joins()
			if len(joins) != 1 || !joins[0].Adapted {
				t.Fatalf("JoinStat.Adapted not set after migration: %+v", joins)
			}
			requireEmptyDir(t, parent)
		})
	}
}

// Differential for the second trigger path: key-multiplicity skew makes
// one resident partition dwarf the cache budget, so the join phase
// re-partitions it on further bits. An unbudgeted radix join must split
// without recording any degradation event — splitting is a locality
// decision, not a memory concession.
func TestAdaptiveSkewSplitMatchesStatic(t *testing.T) {
	// 20000 copies of the hot key x 24 B ≈ 480 KiB in one resident
	// partition vs a 4x32 KiB split threshold.
	build, probe := hotTables(20000, 40000, 4)
	for _, kind := range []core.JoinKind{core.Inner, core.LeftOuter, core.Mark} {
		t.Run(kind.String(), func(t *testing.T) {
			node := joinPlan(build, probe, kind)
			want := staticRows(t, optsWith(RJ), node)

			opts := optsWith(RJ)
			opts.Workers = 4
			opts.Core.CacheBudget = 8 << 10
			res, err := ExecuteErr(context.Background(), opts, node)
			if err != nil {
				t.Fatalf("adaptive run failed: %v", err)
			}
			if res.Adapt.Splits == 0 {
				t.Fatalf("hot partition 15x over split threshold did not split: %+v", res.Adapt)
			}
			if len(res.Degraded) != 0 {
				t.Fatalf("unbudgeted split recorded degradation events: %v", res.Degraded)
			}
			got := resultRows(res.Result)
			sortRows(got)
			if !rowsEqual(got, want) {
				t.Fatalf("adaptive result diverged from static: %d rows, want %d", len(got), len(want))
			}
		})
	}
}

// Differential for the third trigger path: the migrated radix twin itself
// outgrows the budget and spills partitions to disk — migration and spill
// compose, the answer stays exact, and no spill file survives the query.
func TestAdaptiveSpillUnderMigration(t *testing.T) {
	build, probe := makeTables(60000, 120000, 2_000_000, 21)
	node := joinPlan(build, probe, core.Inner)
	want := staticRows(t, optsWith(BHJ), node)

	parent := t.TempDir()
	// 128 KiB: tight enough that after the BHJ→radix migration the
	// partition pages of both sides cannot stay resident either.
	res, err := ExecuteErr(context.Background(), adaptOpts(128<<10, parent), node)
	if err != nil {
		t.Fatalf("adaptive run failed: %v", err)
	}
	if res.Adapt.Migrations == 0 {
		t.Fatalf("build did not migrate: %+v", res.Adapt)
	}
	if res.Spill.Partitions == 0 {
		t.Fatal("migrated join under a 128 KiB budget never spilled")
	}
	got := resultRows(res.Result)
	sortRows(got)
	if !rowsEqual(got, want) {
		t.Fatalf("adaptive+spill result diverged from static: %d rows, want %d", len(got), len(want))
	}
	requireEmptyDir(t, parent)
}

// Every adaptation fault site fires under its natural trigger scenario: a
// zero-duration Stall fault is a pure trigger counter, so this asserts the
// sites sit on the real decision paths without perturbing them.
func TestFaultInjectionAdaptSitesFire(t *testing.T) {
	faultinject.FailOnLeak(t)
	sites := []string{
		adapt.ReserveGrowSite, adapt.ReserveDenySite, adapt.MigrateSite,
		adapt.SplitSite, adapt.ReserveShrinkSite,
	}
	for _, site := range sites {
		faultinject.Arm(t, site, faultinject.Fault{Kind: faultinject.Stall})
	}

	// Scenario 1: build overruns a budget with no shared pool behind it —
	// grow is attempted, denied, and the build migrates.
	build, probe := makeTables(60000, 120000, 2_000_000, 21)
	if _, err := ExecuteErr(context.Background(),
		adaptOpts(256<<10, t.TempDir()), joinPlan(build, probe, core.Inner)); err != nil {
		t.Fatal(err)
	}

	// Scenario 2: key-multiplicity skew splits a resident partition.
	hb, hp := hotTables(20000, 40000, 4)
	opts := optsWith(RJ)
	opts.Core.CacheBudget = 8 << 10
	if _, err := ExecuteErr(context.Background(), opts, joinPlan(hb, hp, core.Inner)); err != nil {
		t.Fatal(err)
	}

	// Scenario 3: a small build under a huge budget shrinks its
	// reservation after the build closes. (The shrink site fires before
	// the pool transfer, so no broker is needed.)
	sb, sp := makeTables(2000, 4000, 3000, 5)
	if _, err := ExecuteErr(context.Background(),
		adaptOpts(64<<20, t.TempDir()), joinPlan(sb, sp, core.Inner)); err != nil {
		t.Fatal(err)
	}

	for _, site := range sites {
		if n := faultinject.Triggers(site); n == 0 {
			t.Errorf("site %s never fired", site)
		}
	}
}

// A mid-migration crash must be contained: the error names the injected
// fault, the spill parent is empty, the admission reservation is returned
// to the pool in full, and no pipeline worker survives the query.
func TestFaultInjectionAdaptMigrationFailsCleanly(t *testing.T) {
	faultinject.FailOnLeak(t)
	faultinject.Arm(t, adapt.MigrateSite,
		faultinject.Fault{Kind: faultinject.Panic, Message: "migration blew up", Once: true})

	build, probe := makeTables(60000, 120000, 2_000_000, 21)
	// The pool admits the 256 KiB reservation but is too small to cover the
	// ~1.4 MiB observed build, so the grow rung is denied and the build
	// migrates — straight into the armed fault.
	broker := admit.NewBroker(admit.Config{GlobalMem: 512 << 10})
	defer broker.Close()
	parent := t.TempDir()
	opts := adaptOpts(256<<10, parent)
	opts.Broker = broker

	base := runtime.NumGoroutine()
	res, err := ExecuteErr(context.Background(), opts, joinPlan(build, probe, core.Inner))
	if err == nil {
		t.Fatalf("injected migration panic returned success: %v rows", res.Result.NumRows())
	}
	var inj *faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != adapt.MigrateSite {
		t.Fatalf("error does not carry the injected fault: %v", err)
	}
	requireEmptyDir(t, parent)
	brokerBalanced(t, broker)
	expectGoroutines(t, base)
}

// Soak: concurrent queries whose estimates are corrupted in both
// directions, under admission control. Every query either completes with
// the exact static answer or is shed with an overload error; the pool is
// balanced afterwards and no spill file survives.
func TestAdaptSoakCorruptedEstimates(t *testing.T) {
	build, probe := makeTables(20000, 40000, 500_000, 11)
	node := joinPlan(build, probe, core.Inner)
	want := staticRows(t, optsWith(BHJ), node)

	broker := admit.NewBroker(admit.Config{GlobalMem: 16 << 20, MaxConcurrency: 4})
	defer broker.Close()
	parent := t.TempDir()

	scales := []float64{1.0 / 16, 1.0 / 4, 4, 16}
	algos := []JoinAlgo{BHJ, RJ}
	var wg sync.WaitGroup
	errs := make(chan error, len(scales)*len(algos)*2)
	var ok int64
	var okMu sync.Mutex
	for round := 0; round < 2; round++ {
		for _, scale := range scales {
			for _, algo := range algos {
				wg.Add(1)
				go func(scale float64, algo JoinAlgo) {
					defer wg.Done()
					opts := optsWith(algo)
					opts.Workers = 2
					opts.MemBudget = 1 << 20
					opts.SpillDir = parent
					opts.Broker = broker
					opts.EstimateScale = scale
					res, err := ExecuteErr(context.Background(), opts, node)
					if err != nil {
						var oe *admit.OverloadError
						if !errors.As(err, &oe) {
							errs <- fmt.Errorf("estimate x%g %v: %w", scale, algo, err)
						}
						return
					}
					got := resultRows(res.Result)
					sortRows(got)
					if !rowsEqual(got, want) {
						errs <- fmt.Errorf("estimate x%g %v: result diverged (%d rows, want %d)",
							scale, algo, len(got), len(want))
						return
					}
					okMu.Lock()
					ok++
					okMu.Unlock()
				}(scale, algo)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ok == 0 {
		t.Fatal("every corrupted-estimate query was shed; soak exercised nothing")
	}
	brokerBalanced(t, broker)
	requireEmptyDir(t, parent)
}
