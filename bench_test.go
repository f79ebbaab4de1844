// Package partitionjoin's root benchmark suite regenerates every table and
// figure of the paper's evaluation section through testing.B entry points.
// Each benchmark logs the experiment's text rendering (run with -v to see
// it) and reports the primary throughput metric so `go test -bench=.`
// doubles as the reproduction harness. The cmd/joinbench and cmd/tpchbench
// binaries run the same experiments with tunable scales.
//
// Scales default small enough for CI hardware; the *Scale constants are the
// single place to raise them on a larger machine.
package main

import (
	"context"
	"testing"

	"partitionjoin/internal/bench"
	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/expr"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/storage"
	"partitionjoin/internal/tpch"
)

const (
	// microScale scales Balkesen et al.'s workloads (1 = 16M x 256M).
	microScale = 1.0 / 128
	// tpchScale is the TPC-H scale factor for the benchmark harness.
	tpchScale = 0.02
)

var benchDB *tpch.DB

func tpchDB() *tpch.DB {
	if benchDB == nil {
		benchDB = tpch.Generate(tpchScale, 1)
	}
	return benchDB
}

func logTable(b *testing.B, t *bench.Table) {
	b.Helper()
	t.Print(func(format string, args ...any) { b.Logf(format, args...) })
}

// logT adapts logTable for the (Table, error) experiment harnesses:
// logT(b)(bench.Fig8(...)) fails the benchmark on error and logs otherwise.
func logT(b *testing.B) func(*bench.Table, error) {
	return func(t *bench.Table, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, t)
	}
}

func singleRun(b *testing.B) {
	b.Helper()
	bench.Runs = 1
}

// BenchmarkTable1WorkloadsAB reports the prior-work workload shapes
// (paper Table 1).
func BenchmarkTable1WorkloadsAB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, bench.Table1(microScale))
	}
}

// BenchmarkFig2WorkloadStats reproduces the tuple-size and join-partner
// histograms of Figure 2 over the TPC-H joins.
func BenchmarkFig2WorkloadStats(b *testing.B) {
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		logT(b)(tpch.Fig2(db, 0))
	}
}

// BenchmarkFig8Scalability sweeps thread counts for workloads A and B over
// NPJ, PRJ, BHJ and RJ (Figures 8 and 9 share the harness).
func BenchmarkFig8Scalability(b *testing.B) {
	singleRun(b)
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Fig8(microScale/2, []int{1, 2}, core.DefaultConfig()))
	}
}

// BenchmarkFig10Bandwidth reports the per-phase memory traffic of the RJ
// (Figure 10, PCM substitute).
func BenchmarkFig10Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Fig10(microScale/2, core.DefaultConfig()))
	}
}

// BenchmarkFig11TPCH runs every TPC-H join query under BHJ, BRJ and RJ
// with and without late materialization (Figure 11).
func BenchmarkFig11TPCH(b *testing.B) {
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		logT(b)(tpch.Fig11(db, 0, 1))
	}
}

// BenchmarkFig1JoinScatter measures the per-join BRJ-vs-BHJ swap for every
// join of every query with its build/probe volumes (Figure 1).
func BenchmarkFig1JoinScatter(b *testing.B) {
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		points, err := tpch.Fig1(db, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, tpch.Fig1Table(points, db.SF))
	}
}

// BenchmarkFig12PerJoin reproduces the per-join impact plots for the
// paper's selected queries (Figure 12).
func BenchmarkFig12PerJoin(b *testing.B) {
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		logT(b)(tpch.Fig12(db, 0, 1, []int{5, 7, 8, 9, 21, 22}))
	}
}

// BenchmarkFig13Q21Tree prints Q21's join tree annotated with measured
// build/probe volumes (Figure 13).
func BenchmarkFig13Q21Tree(b *testing.B) {
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		logT(b)(tpch.Fig13(db, 0))
	}
}

// BenchmarkFig14Selectivity sweeps foreign-key selectivity (Figure 14).
func BenchmarkFig14Selectivity(b *testing.B) {
	singleRun(b)
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Fig14(microScale, []float64{0, 0.05, 0.25, 0.5, 1}, core.DefaultConfig()))
	}
}

// BenchmarkFig15Payload sweeps the probe payload width with and without
// late materialization (Figure 15).
func BenchmarkFig15Payload(b *testing.B) {
	singleRun(b)
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Fig15(microScale, []int{0, 2, 4, 8}, core.DefaultConfig()))
	}
}

// BenchmarkFig16PipelineDepth sweeps chained joins over a star schema
// (Figure 16).
func BenchmarkFig16PipelineDepth(b *testing.B) {
	singleRun(b)
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Fig16(microScale/4, []int{1, 3, 5, 7}, core.DefaultConfig()))
	}
}

// BenchmarkFig17Skew sweeps Zipf skew for both workloads (Figure 17).
func BenchmarkFig17Skew(b *testing.B) {
	singleRun(b)
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Fig17(microScale/2, []float64{0, 0.5, 1, 1.5, 2}, core.DefaultConfig()))
	}
}

// BenchmarkFig18Speedup reports the speedups of BRJ and BHJ over the RJ on
// the microbenchmark and TPC-H (Figure 18).
func BenchmarkFig18Speedup(b *testing.B) {
	singleRun(b)
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Fig18Micro(microScale, core.DefaultConfig()))
		logT(b)(tpch.Fig18TPCH(db, 0, 1))
	}
}

// BenchmarkTable3LateMaterialization measures the combined selectivity and
// payload effect of late materialization (Table 3).
func BenchmarkTable3LateMaterialization(b *testing.B) {
	singleRun(b)
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Table3(microScale, core.DefaultConfig()))
	}
}

// BenchmarkTable4WorkableRanges synthesizes the workable/beneficial ranges
// (Table 4) from quick sweeps.
func BenchmarkTable4WorkableRanges(b *testing.B) {
	singleRun(b)
	for i := 0; i < b.N; i++ {
		logT(b)(bench.Table4(microScale, core.DefaultConfig()))
	}
}

// BenchmarkTable5WorkloadProperties contrasts TPC-H with prior work
// (Table 5).
func BenchmarkTable5WorkloadProperties(b *testing.B) {
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		logT(b)(tpch.Table5(db, 0))
	}
}

// --- raw join micro-benchmarks: per-algorithm throughput on workload A ---

func benchJoin(b *testing.B, algo plan.JoinAlgo, cfg core.Config) {
	spec := bench.WorkloadA(microScale / 2)
	build, probe := spec.Tables()
	tuples := int64(build.NumRows() + probe.NumRows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Runs = 1
		res, err := bench.RunDBMS(build, probe, nil, bench.DBMSOpts{Algo: algo, Core: cfg})
		if err != nil {
			b.Fatal(err)
		}
		if res.Checksum == 0 {
			b.Fatal("empty join result")
		}
	}
	b.SetBytes(tuples * 16)
}

// BenchmarkJoinBHJ measures the buffered non-partitioned hash join alone.
func BenchmarkJoinBHJ(b *testing.B) { benchJoin(b, plan.BHJ, core.DefaultConfig()) }

// BenchmarkJoinRJ measures the radix join alone. At this scale pass 1
// splits the build side finely enough, so no second pass runs.
func BenchmarkJoinRJ(b *testing.B) { benchJoin(b, plan.RJ, core.DefaultConfig()) }

// BenchmarkJoinRJTwoPass is BenchmarkJoinRJ with a cache budget small
// enough (the 1 MiB build side needs 8 radix bits) that the histogram scan
// and partitioning pass 2 run: the other side of the radix join's choice.
func BenchmarkJoinRJTwoPass(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.CacheBudget = 4 << 10
	benchJoin(b, plan.RJ, cfg)
}

// BenchmarkJoinBRJ measures the Bloom-filtered radix join alone.
func BenchmarkJoinBRJ(b *testing.B) { benchJoin(b, plan.BRJ, core.DefaultConfig()) }

// benchScan measures SUM(v) over k < sel*n on a 2M-row clustered key
// column, with the scan pushdown on or off. The pushed 1% scan rides
// zone-map pruning (nearly every morsel skipped); the acceptance bar is
// >= 3x over the unpushed FilterOp plan at 1% and no regression at 100%.
func benchScan(b *testing.B, sel float64, pushdown bool) {
	b.Helper()
	const rows = 2 << 20
	t := scanBenchTable(rows)
	cutoff := int64(float64(rows) * sel)
	opts := plan.DefaultOptions()
	opts.NoScanPushdown = !pushdown
	root := plan.GroupBy(
		plan.Filter(plan.Scan(t, "k", "v"), expr.LtI("k", cutoff)),
		nil,
		plan.AggExpr{Kind: exec.AggSumI, Col: "v", As: "sum_v"},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plan.ExecuteErr(context.Background(), opts, root)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Result.Vecs[0].I64[0]; got != scanBenchSum(cutoff) {
			b.Fatalf("sum %d, want %d", got, scanBenchSum(cutoff))
		}
	}
	b.SetBytes(rows * 16)
}

// scanBenchSum computes the expected SUM(v) for k < cutoff directly.
func scanBenchSum(cutoff int64) int64 {
	var sum int64
	for i := int64(0); i < cutoff; i++ {
		sum += i % 97
	}
	return sum
}

var scanBenchTbl *storage.Table

func scanBenchTable(rows int) *storage.Table {
	if scanBenchTbl == nil || scanBenchTbl.NumRows() != rows {
		schema := storage.NewSchema(
			storage.ColumnDef{Name: "k", Type: storage.Int64},
			storage.ColumnDef{Name: "v", Type: storage.Int64},
		)
		t := storage.NewTable("scanbench", schema, rows)
		kc := t.Cols[0].(*storage.Int64Column)
		vc := t.Cols[1].(*storage.Int64Column)
		for i := 0; i < rows; i++ {
			kc.Values = append(kc.Values, int64(i))
			vc.Values = append(vc.Values, int64(i%97))
		}
		scanBenchTbl = t
	}
	return scanBenchTbl
}

// BenchmarkScanPruned1pct is the 1%-selectivity range scan with pushdown:
// zone maps skip nearly every morsel of the clustered key column.
func BenchmarkScanPruned1pct(b *testing.B) { benchScan(b, 0.01, true) }

// BenchmarkScanUnpruned1pct is the same scan through the unpushed FilterOp
// plan — the before side of the 3x acceptance bar.
func BenchmarkScanUnpruned1pct(b *testing.B) { benchScan(b, 0.01, false) }

// BenchmarkScanPrunedFull is the 100%-selectivity scan with pushdown, which
// must not regress: nothing prunes, the pushed predicate keeps every row.
func BenchmarkScanPrunedFull(b *testing.B) { benchScan(b, 1, true) }

// BenchmarkScanUnprunedFull is the 100%-selectivity baseline.
func BenchmarkScanUnprunedFull(b *testing.B) { benchScan(b, 1, false) }
