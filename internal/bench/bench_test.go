package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"partitionjoin/internal/core"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/storage"
)

func TestWorkloadShapes(t *testing.T) {
	a := WorkloadA(1.0 / 1024)
	if a.KeyType != storage.Int64 || a.BuildTuples*16 != a.ProbeTuples {
		t.Fatalf("workload A shape: %+v", a)
	}
	b := WorkloadB(1.0 / 1024)
	if b.KeyType != storage.Int32 || b.BuildTuples != b.ProbeTuples {
		t.Fatalf("workload B shape: %+v", b)
	}
	if b.BuildBytes() != int64(b.BuildTuples)*8 {
		t.Fatalf("workload B bytes: %d", b.BuildBytes())
	}
}

func TestTablesSelectivityIsRespected(t *testing.T) {
	spec := WorkloadA(1.0 / 1024)
	spec.Selectivity = 0.25
	build, probe := spec.Tables()
	if build.NumRows() != spec.BuildTuples || probe.NumRows() != spec.ProbeTuples {
		t.Fatal("cardinalities wrong")
	}
	inDomain := 0
	for _, k := range probe.Int64Col("fk") {
		if k < int64(spec.BuildTuples) {
			inDomain++
		}
	}
	got := float64(inDomain) / float64(spec.ProbeTuples)
	if got < 0.24 || got > 0.26 {
		t.Fatalf("matching fraction %.3f, want 0.25", got)
	}
}

func TestTablesInt32Workload(t *testing.T) {
	spec := WorkloadB(1.0 / 4096)
	build, probe := spec.Tables()
	if _, ok := build.ColByName("key").(*storage.Int32Column); !ok {
		t.Fatal("workload B build key is not int32")
	}
	if _, ok := probe.ColByName("fk").(*storage.Int32Column); !ok {
		t.Fatal("workload B probe key is not int32")
	}
}

func TestRelationsMatchTables(t *testing.T) {
	// The standalone arrays and the stored tables of one spec must
	// produce identical match counts.
	spec := WorkloadA(1.0 / 1024)
	spec.Selectivity = 0.5
	build, probe := spec.Tables()
	rbuild, rprobe := spec.Relations()
	bkeys := map[int64]int64{}
	for _, k := range build.Int64Col("key") {
		bkeys[k]++
	}
	var wantTables int64
	for _, k := range probe.Int64Col("fk") {
		wantTables += bkeys[k]
	}
	Runs = 1
	sres := RunStandalone(rbuild, rprobe, false, 2, 1<<19)
	// The random draws differ between Tables and Relations (independent
	// streams), but the match totals must be statistically close and the
	// DBMS joins must agree with the reference exactly.
	dres, err := RunDBMS(build, probe, nil, DBMSOpts{Algo: plan.BHJ, Threads: 2, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Checksum != wantTables {
		t.Fatalf("DBMS join count %d, reference %d", dres.Checksum, wantTables)
	}
	ratio := float64(sres.Checksum) / float64(wantTables)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("standalone count %d far from table count %d", sres.Checksum, wantTables)
	}
}

func TestAllAlgorithmsAgreeOnChecksum(t *testing.T) {
	Runs = 1
	spec := WorkloadA(1.0 / 2048)
	spec.Selectivity = 0.3
	spec.PayloadCols = 2
	build, probe := spec.Tables()
	names := spec.PayNames()
	var ref int64
	for _, algo := range []plan.JoinAlgo{plan.BHJ, plan.RJ, plan.BRJ} {
		for _, lm := range []bool{false, true} {
			res, err := RunDBMS(build, probe, names, DBMSOpts{Algo: algo, Threads: 2, LM: lm, Core: core.DefaultConfig()})
			if err != nil {
				t.Fatal(err)
			}
			if ref == 0 {
				ref = res.Checksum
			} else if res.Checksum != ref {
				t.Fatalf("%v lm=%v checksum %d != %d", algo, lm, res.Checksum, ref)
			}
		}
	}
}

func TestStarTablesAndPlanAgree(t *testing.T) {
	Runs = 1
	spec := WorkloadA(1.0 / 4096)
	dims, fact := StarTables(spec, 3)
	if fact.NumRows() != spec.ProbeTuples {
		t.Fatal("fact cardinality wrong")
	}
	for _, c := range fact.Cols {
		for _, v := range c.(*storage.Int64Column).Values {
			if v < 0 || v >= int64(spec.BuildTuples) {
				t.Fatalf("fk %d outside dimension domain", v)
			}
		}
	}
	var ref int64
	for _, algo := range []plan.JoinAlgo{plan.BHJ, plan.RJ} {
		for depth := 1; depth <= 3; depth++ {
			res, err := RunStar(dims, fact, depth, algo, 2, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if depth == 1 {
				if algo == plan.BHJ {
					ref = res.Checksum
				} else if res.Checksum != ref {
					t.Fatalf("star depth 1: %v disagrees", algo)
				}
			}
			if res.Throughput <= 0 {
				t.Fatal("non-positive throughput")
			}
		}
	}
}

func TestTable1Renders(t *testing.T) {
	tab := Table1(1.0 / 1024)
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "A" || tab.Rows[1][0] != "B" {
		t.Fatalf("table 1: %+v", tab.Rows)
	}
	lines := 0
	tab.Print(func(format string, args ...any) { lines++ })
	if lines != 5 { // title, header, separator, two rows
		t.Fatalf("printed %d lines", lines)
	}
}

func TestFig10PhasesPresent(t *testing.T) {
	// The table lists the passes that ran. At this scale the build side is
	// split finely enough by pass 1 alone; a cache budget far below it
	// forces the two-pass shape of the paper's figure.
	phasesOf := func(cfg core.Config) map[string]bool {
		tab, err := Fig10(1.0/8192, cfg)
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		for _, row := range tab.Rows {
			found[row[0]] = true
		}
		return found
	}
	onePass := phasesOf(core.DefaultConfig())
	small := core.DefaultConfig()
	small.CacheBudget = 1 << 8
	found := phasesOf(small)
	for _, side := range []string{"build", "probe"} {
		for _, second := range []string{"scan (" + side + ")", "partition pass 2 (" + side + ")"} {
			if !found[second] {
				t.Fatalf("phase %q missing from the two-pass run: %v", second, found)
			}
			if onePass[second] {
				t.Fatalf("phase %q listed although the second pass did not run", second)
			}
		}
		if first := "partition pass 1 (" + side + ")"; !found[first] || !onePass[first] {
			t.Fatalf("phase %q missing", first)
		}
	}
	joinSeen := false
	for name := range found {
		if len(name) >= 4 && name[:4] == "join" {
			joinSeen = true
		}
	}
	if !joinSeen {
		t.Fatal("join phase missing")
	}
}

func TestDegradedEventsReachResultAndTable(t *testing.T) {
	Runs = 1
	spec := WorkloadA(1.0 / 1024)
	build, probe := spec.Tables()
	// A budget far below the build side forces the spill rung; the
	// degradation events must travel Result -> Table.Notes -> JSON.
	res, err := RunDBMS(build, probe, nil, DBMSOpts{
		Algo: plan.RJ, Threads: 2, Core: core.DefaultConfig(),
		MemBudget: 32 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("budgeted run recorded no degradation events")
	}
	spilled := false
	for _, ev := range res.Degraded {
		if strings.Contains(ev, "spill") {
			spilled = true
		}
	}
	if !spilled {
		t.Fatalf("no spill event among degradations: %v", res.Degraded)
	}
	tab := &Table{Title: "t", Header: []string{"a"}}
	tab.Add("row")
	tab.NoteDegraded("RJ", res)
	if len(tab.Notes) == 0 {
		t.Fatal("NoteDegraded added nothing")
	}
	lines := 0
	tab.Print(func(format string, args ...any) { lines++ })
	if lines != 4+len(tab.Notes) { // title, header, separator, row + notes
		t.Fatalf("printed %d lines with %d notes", lines, len(tab.Notes))
	}
	b, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Notes) != len(tab.Notes) {
		t.Fatalf("JSON carries %d notes, want %d", len(decoded.Notes), len(tab.Notes))
	}
}
