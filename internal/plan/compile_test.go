package plan

import (
	"strings"
	"testing"

	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/expr"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/storage"
)

func TestProjectReordersColumns(t *testing.T) {
	build, _ := makeTables(50, 0, 100, 31)
	res := Execute(DefaultOptions(), Project(Scan(build, "key", "bval"), "bval", "key"))
	if len(res.Cols) != 2 || res.Cols[0].Name != "bval" || res.Cols[1].Name != "key" {
		t.Fatalf("projection schema: %+v", res.Cols)
	}
	for i := 0; i < res.Result.NumRows(); i++ {
		if res.Result.Vecs[0].I64[i] != build.Int64Col("bval")[i] {
			t.Fatal("projection scrambled values")
		}
	}
}

func TestTableFromResultRoundTrip(t *testing.T) {
	build, _ := makeTables(100, 0, 100, 32)
	res := Execute(DefaultOptions(), Scan(build, "key", "bval"))
	tbl := TableFromResult("copy", res.Cols, res.Result)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	res2 := Execute(DefaultOptions(), GroupBy(Scan(tbl, "bval"), nil,
		AggExpr{Kind: exec.AggSumI, Col: "bval", As: "s"}))
	var want int64
	for _, v := range build.Int64Col("bval") {
		want += v
	}
	if res2.MustScalarI64() != want {
		t.Fatalf("round-tripped sum %d, want %d", res2.MustScalarI64(), want)
	}
}

func TestTableFromResultWithStrings(t *testing.T) {
	sch := storage.NewSchema(storage.ColumnDef{Name: "s", Type: storage.String, StrCap: 8})
	src := storage.NewTable("src", sch, 2)
	sc := src.Cols[0].(*storage.StringColumn)
	sc.AppendString("aa")
	sc.AppendString("bb")
	res := Execute(DefaultOptions(), Scan(src, "s"))
	tbl := TableFromResult("copy", res.Cols, res.Result)
	res2 := Execute(DefaultOptions(), Filter(Scan(tbl, "s"), expr.EqStr("s", "bb")))
	if res2.Result.NumRows() != 1 {
		t.Fatalf("string table round trip: %d rows", res2.Result.NumRows())
	}
}

func TestSharedSinkOpensOnceClosesOnce(t *testing.T) {
	inner := &countingSink{}
	s := &sharedSink{S: inner, expected: 3}
	s.Open(2)
	s.Open(2)
	s.Open(2)
	if inner.opens != 1 {
		t.Fatalf("inner opened %d times", inner.opens)
	}
	s.Close()
	s.Close()
	if inner.closes != 0 {
		t.Fatal("closed early")
	}
	s.Close()
	if inner.closes != 1 {
		t.Fatalf("inner closed %d times", inner.closes)
	}
}

type countingSink struct{ opens, closes int }

func (c *countingSink) Open(workers int)                     { c.opens++ }
func (c *countingSink) Consume(ctx *exec.Ctx, b *exec.Batch) {}
func (c *countingSink) Close()                               { c.closes++ }

func TestStatsCollector(t *testing.T) {
	build, probe := makeTables(300, 2000, 400, 33)
	stats := NewStatsCollector()
	opts := DefaultOptions()
	opts.Algo = RJ
	opts.Stats = stats
	Execute(opts, joinPlan(build, probe, core.Inner))
	joins := stats.Joins()
	if len(joins) != 1 {
		t.Fatalf("collected %d stats", len(joins))
	}
	s := joins[0]
	if s.BuildRows != 300 || s.ProbeRows != 2000 {
		t.Fatalf("cardinalities: %d/%d", s.BuildRows, s.ProbeRows)
	}
	if s.Algo != RJ || s.Kind != "inner" {
		t.Fatalf("metadata: %+v", s)
	}
	// Build rows are [hash][key][bval] = 24 -> padded 32.
	if s.BuildTupleBytes != 32 {
		t.Fatalf("build tuple bytes %d", s.BuildTupleBytes)
	}
	if s.MatchRate() <= 0 || s.MatchRate() > 1 {
		t.Fatalf("match rate %f", s.MatchRate())
	}
	if s.BuildBytes() != 300*32 {
		t.Fatalf("build bytes %d", s.BuildBytes())
	}
}

func TestBloomDisabledForProbeAntiKinds(t *testing.T) {
	// BRJ on a probe-side anti join must not install the reducer (it
	// would drop result rows); verified behaviorally in plan_test, here
	// structurally: the join must report Bloom off.
	build, probe := makeTables(100, 500, 150, 34)
	for _, kind := range []core.JoinKind{core.Anti, core.Mark, core.RightOuter} {
		opts := DefaultOptions()
		opts.Algo = BRJ
		res := Execute(opts, joinPlan(build, probe, kind))
		want := refJoin(build, probe, kind)
		if res.Result.NumRows() != len(want) {
			t.Fatalf("%v: %d rows, want %d", kind, res.Result.NumRows(), len(want))
		}
	}
}

// TestMeterDescribesThePassesThatRan pins the Figure 10 account: the radix
// join's phases and byte counts cover exactly the partitioning passes that
// ran. A build side that pass 1 already splits finely enough gets no scan
// and no second pass — no phases and no bytes for them. The join phase
// builds its tables over the partitions where they lie and writes no build
// byte: every byte written outside a partitioning pass is the collected
// result. The build side spans three morsels on four workers, and each
// worker's pass-1 partitions outgrow their first page, so a one-pass build
// partition arrives as pages of several workers.
func TestMeterDescribesThePassesThatRan(t *testing.T) {
	const nBuild, nProbe, rowSize = 3 * storage.MorselSize, 5000, 32 // hash, key, payload: 24 B padded to 32
	// Every probe key has build partners, so the BRJ's filter drops no
	// probe row and both algorithms partition the same rows.
	build, probe := makeTables(nBuild, nProbe, 10000, 35)
	for _, algo := range []JoinAlgo{RJ, BRJ} {
		for _, tc := range []struct {
			name        string
			cacheBudget int
			passes      int64
		}{
			{"one pass", core.DefaultConfig().CacheBudget, 1},
			{"two passes", 1 << 10, 2},
		} {
			name := algo.String() + " " + tc.name
			m := meter.New()
			opts := DefaultOptions()
			opts.Algo = algo
			opts.Meter = m
			opts.Workers = 4
			opts.Core.CacheBudget = tc.cacheBudget
			res := Execute(opts, joinPlan(build, probe, core.Inner))
			var partWritten, pass2Phases, joinWritten int64
			for _, ph := range m.Phases() {
				switch {
				case strings.HasPrefix(ph.Name, "partition pass 1"):
					partWritten += ph.Written
				case strings.HasPrefix(ph.Name, "partition pass 2"), strings.HasPrefix(ph.Name, "scan"):
					partWritten += ph.Written
					pass2Phases++
				case strings.HasPrefix(ph.Name, "join+"):
					joinWritten += ph.Written
				}
			}
			if want := (tc.passes - 1) * 4; pass2Phases != want {
				t.Errorf("%s: %d scan/pass-2 phases, want %d", name, pass2Phases, want)
			}
			if want := (nBuild + nProbe) * rowSize * tc.passes; partWritten != want {
				t.Errorf("%s: partitioning wrote %d B, want rows x rowSize x passes = %d", name, partWritten, want)
			}
			r := res.Result
			if want := int64(r.NumRows() * 8 * len(r.Vecs)); r.NumRows() == 0 || joinWritten != want {
				t.Errorf("%s: join phase wrote %d B, want the %d B of its %d result rows",
					name, joinWritten, want, r.NumRows())
			}
			read, written := m.Totals()
			if read == 0 {
				t.Errorf("%s: meter recorded no reads", name)
			}
			if written != partWritten+joinWritten {
				t.Errorf("%s: meter recorded %d B written, %d B of them outside the partitioning passes and the result",
					name, written, written-partWritten-joinWritten)
			}
		}
	}
}

func TestExecResultThroughput(t *testing.T) {
	build, _ := makeTables(1000, 0, 100, 36)
	res := Execute(DefaultOptions(), Scan(build, "key"))
	if res.SourceRows != 1000 {
		t.Fatalf("source rows %d", res.SourceRows)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
}
