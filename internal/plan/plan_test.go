package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/expr"
	"partitionjoin/internal/storage"
)

// makeTables builds a build table (key, bval) and probe table (fkey, pval)
// with controllable match rate; keys are drawn from [0, keyRange).
func makeTables(nBuild, nProbe int, keyRange int64, seed int64) (*storage.Table, *storage.Table) {
	rng := rand.New(rand.NewSource(seed))
	bs := storage.NewSchema(
		storage.ColumnDef{Name: "key", Type: storage.Int64},
		storage.ColumnDef{Name: "bval", Type: storage.Int64},
	)
	build := storage.NewTable("build", bs, nBuild)
	bkey := build.Cols[0].(*storage.Int64Column)
	bval := build.Cols[1].(*storage.Int64Column)
	for i := 0; i < nBuild; i++ {
		bkey.Values = append(bkey.Values, rng.Int63n(keyRange))
		bval.Values = append(bval.Values, int64(i)*3)
	}
	ps := storage.NewSchema(
		storage.ColumnDef{Name: "fkey", Type: storage.Int64},
		storage.ColumnDef{Name: "pval", Type: storage.Int64},
	)
	probe := storage.NewTable("probe", ps, nProbe)
	pkey := probe.Cols[0].(*storage.Int64Column)
	pval := probe.Cols[1].(*storage.Int64Column)
	for i := 0; i < nProbe; i++ {
		pkey.Values = append(pkey.Values, rng.Int63n(keyRange))
		pval.Values = append(pval.Values, int64(i)*7)
	}
	return build, probe
}

// refJoin computes the reference result with nested maps.
func refJoin(build, probe *storage.Table, kind core.JoinKind) [][]int64 {
	bkey := build.Int64Col("key")
	bval := build.Int64Col("bval")
	pkey := probe.Int64Col("fkey")
	pval := probe.Int64Col("pval")
	byKey := map[int64][]int{}
	for i, k := range bkey {
		byKey[k] = append(byKey[k], i)
	}
	var out [][]int64
	matched := make([]bool, len(bkey))
	for i, k := range pkey {
		hits := byKey[k]
		switch kind {
		case core.Inner, core.LeftOuter, core.RightOuter:
			for _, b := range hits {
				out = append(out, []int64{bval[b], pval[i]})
				matched[b] = true
			}
			if kind == core.RightOuter && len(hits) == 0 {
				out = append(out, []int64{0, pval[i]})
			}
		case core.Semi:
			if len(hits) > 0 {
				out = append(out, []int64{pval[i]})
			}
		case core.Anti:
			if len(hits) == 0 {
				out = append(out, []int64{pval[i]})
			}
		case core.Mark:
			m := int64(0)
			if len(hits) > 0 {
				m = 1
			}
			out = append(out, []int64{pval[i], m})
		}
	}
	if kind == core.LeftOuter {
		for b, m := range matched {
			if !m {
				out = append(out, []int64{bval[b], 0})
			}
		}
	}
	return out
}

func refBuildSide(build, probe *storage.Table, kind core.JoinKind) [][]int64 {
	bkey := build.Int64Col("key")
	bval := build.Int64Col("bval")
	probeKeys := map[int64]bool{}
	for _, k := range probe.Int64Col("fkey") {
		probeKeys[k] = true
	}
	var out [][]int64
	for i, k := range bkey {
		hit := probeKeys[k]
		if (kind == core.LeftSemi && hit) || (kind == core.LeftAnti && !hit) {
			out = append(out, []int64{bval[i]})
		}
	}
	return out
}

func TestBuildSideSemiAnti(t *testing.T) {
	for _, kind := range []core.JoinKind{core.LeftSemi, core.LeftAnti} {
		for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
			for _, workers := range []int{1, 3} {
				build, probe := makeTables(800, 4000, 1200, 13)
				want := refBuildSide(build, probe, kind)
				sortRows(want)
				j := &JoinNode{
					ID: 1, Kind: kind,
					Build:     Scan(build, "key", "bval"),
					Probe:     Scan(probe, "fkey"),
					BuildKeys: []string{"key"}, ProbeKeys: []string{"fkey"},
					BuildPay: []string{"bval"},
				}
				opts := DefaultOptions()
				opts.Algo = algo
				opts.Workers = workers
				opts.Core.CacheBudget = 1 << 10
				res := Execute(opts, j)
				got := resultRows(res.Result)
				sortRows(got)
				if !rowsEqual(got, want) {
					t.Fatalf("%v/%v/w%d: got %d rows, want %d", kind, algo, workers, len(got), len(want))
				}
			}
		}
	}
}

func TestBuildSemiWithResidual(t *testing.T) {
	// EXISTS with an inequality residual, the Q21 shape: build row
	// matches when some probe row shares the key but differs in value.
	build, probe := makeTables(300, 2000, 100, 17)
	bkey, bval := build.Int64Col("key"), build.Int64Col("bval")
	pkey, pval := probe.Int64Col("fkey"), probe.Int64Col("pval")
	byKey := map[int64][]int{}
	for i, k := range pkey {
		byKey[k] = append(byKey[k], i)
	}
	var want [][]int64
	for i, k := range bkey {
		hit := false
		for _, p := range byKey[k] {
			if pval[p] != bval[i] {
				hit = true
				break
			}
		}
		if hit {
			want = append(want, []int64{bval[i]})
		}
	}
	sortRows(want)
	for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
		j := &JoinNode{
			ID: 1, Kind: core.LeftSemi,
			Build:     Scan(build, "key", "bval"),
			Probe:     Scan(probe, "fkey", "pval"),
			BuildKeys: []string{"key"}, ProbeKeys: []string{"fkey"},
			BuildPay:   []string{"bval"},
			ResidualNe: [][2]string{{"bval", "pval"}},
		}
		opts := DefaultOptions()
		opts.Algo = algo
		res := Execute(opts, j)
		got := resultRows(res.Result)
		sortRows(got)
		if !rowsEqual(got, want) {
			t.Fatalf("%v: got %d rows, want %d", algo, len(got), len(want))
		}
	}
}

func joinPlan(build, probe *storage.Table, kind core.JoinKind) Node {
	j := &JoinNode{
		ID:        1,
		Kind:      kind,
		Build:     Scan(build, "key", "bval"),
		Probe:     Scan(probe, "fkey", "pval"),
		BuildKeys: []string{"key"},
		ProbeKeys: []string{"fkey"},
		ProbePay:  []string{"pval"},
	}
	if kind == core.Inner || kind == core.LeftOuter || kind == core.RightOuter {
		j.BuildPay = []string{"bval"}
	}
	if kind == core.Mark {
		j.MarkName = "hit"
	}
	return j
}

func resultRows(r *exec.Result) [][]int64 {
	out := make([][]int64, r.NumRows())
	for i := range out {
		row := make([]int64, len(r.Vecs))
		for c := range r.Vecs {
			row[c] = r.Vecs[c].I64[i]
		}
		out[i] = row
	}
	return out
}

func sortRows(rows [][]int64) {
	slices.SortFunc(rows, slices.Compare[[]int64])
}

func rowsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestJoinKindsAllAlgorithmsMatchReference(t *testing.T) {
	kinds := []core.JoinKind{core.Inner, core.Semi, core.Anti, core.Mark, core.LeftOuter, core.RightOuter}
	algos := []JoinAlgo{BHJ, RJ, BRJ}
	for _, kind := range kinds {
		for _, algo := range algos {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%v/%v/w%d", kind, algo, workers)
				t.Run(name, func(t *testing.T) {
					build, probe := makeTables(500, 3000, 700, 42)
					want := refJoin(build, probe, kind)
					sortRows(want)
					opts := DefaultOptions()
					opts.Algo = algo
					opts.Workers = workers
					// Force several radix partitions even at
					// this tiny scale.
					opts.Core.CacheBudget = 1 << 10
					res := Execute(opts, joinPlan(build, probe, kind))
					got := resultRows(res.Result)
					sortRows(got)
					if !rowsEqual(got, want) {
						t.Fatalf("%s: got %d rows, want %d rows", name, len(got), len(want))
					}
				})
			}
		}
	}
}

func TestJoinDuplicateKeysBothSides(t *testing.T) {
	// Many-to-many joins must produce the full cross product per key.
	build, probe := makeTables(200, 200, 10, 7) // heavy duplication
	want := refJoin(build, probe, core.Inner)
	sortRows(want)
	for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
		opts := DefaultOptions()
		opts.Algo = algo
		opts.Workers = 2
		res := Execute(opts, joinPlan(build, probe, core.Inner))
		got := resultRows(res.Result)
		sortRows(got)
		if !rowsEqual(got, want) {
			t.Fatalf("%v: got %d rows, want %d", algo, len(got), len(want))
		}
	}
}

func TestJoinEmptyBuildSide(t *testing.T) {
	build, probe := makeTables(0, 100, 10, 1)
	for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
		opts := DefaultOptions()
		opts.Algo = algo
		res := Execute(opts, joinPlan(build, probe, core.Inner))
		if res.Result.NumRows() != 0 {
			t.Fatalf("%v: inner join with empty build returned %d rows", algo, res.Result.NumRows())
		}
		res = Execute(opts, joinPlan(build, probe, core.Anti))
		if res.Result.NumRows() != 100 {
			t.Fatalf("%v: anti join with empty build returned %d rows, want 100", algo, res.Result.NumRows())
		}
	}
}

func TestJoinEmptyProbeSide(t *testing.T) {
	build, probe := makeTables(100, 0, 10, 1)
	for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
		opts := DefaultOptions()
		opts.Algo = algo
		res := Execute(opts, joinPlan(build, probe, core.LeftOuter))
		if res.Result.NumRows() != 100 {
			t.Fatalf("%v: left outer with empty probe returned %d rows, want 100", algo, res.Result.NumRows())
		}
	}
}

func TestFilterGroupByOrderBy(t *testing.T) {
	build, _ := makeTables(1000, 0, 50, 3)
	root := OrderBy(
		GroupBy(
			Filter(Scan(build, "key", "bval"), expr.LtI("key", 10)),
			[]string{"key"},
			AggExpr{Kind: exec.AggCount, As: "n"},
			AggExpr{Kind: exec.AggSumI, Col: "bval", As: "s"},
		),
		0,
		OrderKey{Col: "key"},
	)
	res := Execute(DefaultOptions(), root)
	// Reference.
	counts := map[int64]int64{}
	sums := map[int64]int64{}
	for i, k := range build.Int64Col("key") {
		if k < 10 {
			counts[k]++
			sums[k] += build.Int64Col("bval")[i]
		}
	}
	if res.Result.NumRows() != len(counts) {
		t.Fatalf("got %d groups, want %d", res.Result.NumRows(), len(counts))
	}
	prev := int64(-1)
	for i := 0; i < res.Result.NumRows(); i++ {
		k := res.Result.Vecs[0].I64[i]
		if k <= prev {
			t.Fatalf("keys not ordered: %d after %d", k, prev)
		}
		prev = k
		if res.Result.Vecs[1].I64[i] != counts[k] || res.Result.Vecs[2].I64[i] != sums[k] {
			t.Fatalf("group %d: got (%d,%d), want (%d,%d)", k,
				res.Result.Vecs[1].I64[i], res.Result.Vecs[2].I64[i], counts[k], sums[k])
		}
	}
}

func TestPerJoinAlgoOverride(t *testing.T) {
	build, probe := makeTables(300, 2000, 400, 9)
	want := refJoin(build, probe, core.Inner)
	sortRows(want)
	opts := DefaultOptions()
	opts.Algo = BHJ
	opts.PerJoin = map[int]JoinAlgo{1: RJ}
	res := Execute(opts, joinPlan(build, probe, core.Inner))
	got := resultRows(res.Result)
	sortRows(got)
	if !rowsEqual(got, want) {
		t.Fatal("per-join override changed the result")
	}
}

func TestResidualNotEqual(t *testing.T) {
	build, probe := makeTables(300, 1000, 50, 5)
	// Reference: inner join where bval != pval (never equal here by
	// construction except key 0 row 0) — use key cols as residual
	// instead: join on key, require bval != pval.
	bkey := build.Int64Col("key")
	bval := build.Int64Col("bval")
	pkey := probe.Int64Col("fkey")
	pval := probe.Int64Col("pval")
	byKey := map[int64][]int{}
	for i, k := range bkey {
		byKey[k] = append(byKey[k], i)
	}
	var want [][]int64
	for i, k := range pkey {
		for _, b := range byKey[k] {
			if bval[b] != pval[i] {
				want = append(want, []int64{bval[b], pval[i]})
			}
		}
	}
	sortRows(want)
	for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
		j := &JoinNode{
			ID:         1,
			Kind:       core.Inner,
			Build:      Scan(build, "key", "bval"),
			Probe:      Scan(probe, "fkey", "pval"),
			BuildKeys:  []string{"key"},
			ProbeKeys:  []string{"fkey"},
			BuildPay:   []string{"bval"},
			ProbePay:   []string{"pval"},
			ResidualNe: [][2]string{{"bval", "pval"}},
		}
		opts := DefaultOptions()
		opts.Algo = algo
		res := Execute(opts, j)
		got := resultRows(res.Result)
		sortRows(got)
		if !rowsEqual(got, want) {
			t.Fatalf("%v: residual join got %d rows, want %d", algo, len(got), len(want))
		}
	}
}

func TestMapAndRename(t *testing.T) {
	build, _ := makeTables(100, 0, 20, 2)
	root := GroupBy(
		Map(Rename(Scan(build, "key", "bval"), "bval", "v"),
			expr.MulConstI("v2", "v", 2)),
		nil,
		AggExpr{Kind: exec.AggSumI, Col: "v2", As: "s"},
	)
	res := Execute(DefaultOptions(), root)
	var want int64
	for _, v := range build.Int64Col("bval") {
		want += 2 * v
	}
	if got := res.MustScalarI64(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestLateLoadMatchesEarly(t *testing.T) {
	build, probe := makeTables(200, 1500, 300, 11)
	// Early: payload carried through the join.
	early := GroupBy(joinPlan(build, probe, core.Inner), nil,
		AggExpr{Kind: exec.AggSumI, Col: "pval", As: "s"},
		AggExpr{Kind: exec.AggCount, As: "n"})
	// Late: probe carries only rowid; pval fetched after the join.
	late := GroupBy(
		LateLoad(&JoinNode{
			ID:        1,
			Kind:      core.Inner,
			Build:     Scan(build, "key", "bval"),
			Probe:     ScanRowID(probe, "rid", "fkey"),
			BuildKeys: []string{"key"},
			ProbeKeys: []string{"fkey"},
			BuildPay:  []string{"bval"},
			ProbePay:  []string{"rid"},
		}, probe, "rid", "pval"),
		nil,
		AggExpr{Kind: exec.AggSumI, Col: "pval", As: "s"},
		AggExpr{Kind: exec.AggCount, As: "n"})
	for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
		opts := DefaultOptions()
		opts.Algo = algo
		e := Execute(opts, early)
		l := Execute(opts, late)
		if e.Result.Vecs[0].I64[0] != l.Result.Vecs[0].I64[0] ||
			e.Result.Vecs[1].I64[0] != l.Result.Vecs[1].I64[0] {
			t.Fatalf("%v: late materialization changed the result: early=(%d,%d) late=(%d,%d)",
				algo, e.Result.Vecs[0].I64[0], e.Result.Vecs[1].I64[0],
				l.Result.Vecs[0].I64[0], l.Result.Vecs[1].I64[0])
		}
	}
}

func TestChainedJoinsAcrossAlgorithms(t *testing.T) {
	// A two-join pipeline (star-schema shape): probe flows through both.
	dim1, fact := makeTables(100, 5000, 100, 21)
	dim2, _ := makeTables(100, 0, 100, 22)
	mk := func() Node {
		j1 := &JoinNode{
			ID: 1, Kind: core.Inner,
			Build:     Rename(Scan(dim1, "key", "bval"), "key", "k1", "bval", "v1"),
			Probe:     Scan(fact, "fkey", "pval"),
			BuildKeys: []string{"k1"}, ProbeKeys: []string{"fkey"},
			BuildPay: []string{"v1"}, ProbePay: []string{"fkey", "pval"},
		}
		j2 := &JoinNode{
			ID: 2, Kind: core.Inner,
			Build:     Rename(Scan(dim2, "key", "bval"), "key", "k2", "bval", "v2"),
			Probe:     j1,
			BuildKeys: []string{"k2"}, ProbeKeys: []string{"fkey"},
			BuildPay: []string{"v2"}, ProbePay: []string{"v1", "pval"},
		}
		return GroupBy(j2, nil,
			AggExpr{Kind: exec.AggSumI, Col: "v2", As: "s2"},
			AggExpr{Kind: exec.AggSumI, Col: "v1", As: "s1"},
			AggExpr{Kind: exec.AggSumI, Col: "pval", As: "sp"},
			AggExpr{Kind: exec.AggCount, As: "n"})
	}
	var ref []int64
	for _, algo := range []JoinAlgo{BHJ, RJ, BRJ} {
		opts := DefaultOptions()
		opts.Algo = algo
		opts.Workers = 3
		res := Execute(opts, mk())
		got := []int64{
			res.Result.Vecs[0].I64[0], res.Result.Vecs[1].I64[0],
			res.Result.Vecs[2].I64[0], res.Result.Vecs[3].I64[0],
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("%v disagrees with BHJ: got %v, want %v", algo, got, ref)
			}
		}
	}
}

func TestOrderByLimit(t *testing.T) {
	build, _ := makeTables(1000, 0, 1000000, 4)
	root := OrderBy(Scan(build, "key", "bval"), 10, OrderKey{Col: "key", Desc: true})
	res := Execute(DefaultOptions(), root)
	if res.Result.NumRows() != 10 {
		t.Fatalf("limit: got %d rows", res.Result.NumRows())
	}
	for i := 1; i < 10; i++ {
		if res.Result.Vecs[0].I64[i] > res.Result.Vecs[0].I64[i-1] {
			t.Fatal("not sorted descending")
		}
	}
}
