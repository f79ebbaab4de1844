package exec

import (
	"runtime"
	"testing"

	"partitionjoin/internal/storage"
)

// countOp discards batches, counting rows.
type countOp struct{ rows int }

func (o *countOp) Process(ctx *Ctx, b *Batch) { o.rows += b.N }
func (o *countOp) Flush(ctx *Ctx)             {}

// allocTable builds a two-column Int64 table for the steady-state tests.
func allocTable(rows int) *storage.Table {
	schema := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.Int64},
		storage.ColumnDef{Name: "v", Type: storage.Int64},
	)
	t := storage.NewTable("alloctest", schema, rows)
	kc := t.Cols[0].(*storage.Int64Column)
	vc := t.Cols[1].(*storage.Int64Column)
	for i := 0; i < rows; i++ {
		kc.Values = append(kc.Values, int64(i))
		vc.Values = append(vc.Values, int64(i%7))
	}
	return t
}

// TestScanEmitAllocs pins the hot scan loop at zero steady-state
// allocations: after the first morsel warms the worker's reusable batch
// and keep buffer, emitting further morsels — zone-map full-match path,
// per-row filtered path, and unfiltered path — must not allocate. This is
// the per-morsel scratch contract the -gcflags=-m audit enforces.
func TestScanEmitAllocs(t *testing.T) {
	tbl := allocTable(4 * BatchSize)
	cases := []struct {
		name  string
		preds []ScanPred
	}{
		{"unpushed", nil},
		// Covers every row: the zone-map full-match fast path.
		{"fullmatch", []ScanPred{{Kind: ScanRangeI, Col: 0, Lo: -1, Hi: int64(4 * BatchSize)}}},
		// Keeps about half of each batch: the per-row kernel + gather path.
		{"filtered", []ScanPred{{Kind: ScanRangeI, Col: 0, Lo: 0, Hi: int64(2*BatchSize + 100)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := NewTableSource(tbl, "k", "v")
			if tc.preds != nil {
				src.SetPushed(tc.preds)
			}
			ctx := &Ctx{Workers: 1}
			out := &countOp{}
			for task := 0; task < src.Tasks(); task++ {
				src.Emit(ctx, task, out) // warm batch, keep buffer, widen caps
			}
			if n := testing.AllocsPerRun(10, func() {
				for task := 0; task < src.Tasks(); task++ {
					src.Emit(ctx, task, out)
				}
			}); n > 0 {
				t.Fatalf("steady-state Emit allocates %.1f times per run, want 0", n)
			}
		})
	}
}

// TestGroupByConsumeAllocs pins the keyed aggregation hot path at zero
// steady-state allocations: once the groups exist, Consume must reuse the
// table-held scratch key buffer instead of allocating one per batch.
func TestGroupByConsumeAllocs(t *testing.T) {
	g := &GroupBySink{
		Keys:     []int{0},
		Aggs:     []AggSpec{{Kind: AggSumI, Col: 1}},
		KeyTypes: []storage.Type{storage.Int64},
		KeyCaps:  []int{0},
	}
	g.Open(1)
	ctx := &Ctx{Workers: 1}
	b := NewBatch([]storage.Type{storage.Int64, storage.Int64}, []int{0, 0})
	for i := 0; i < BatchSize; i++ {
		b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(i%16))
		b.Vecs[1].I64 = append(b.Vecs[1].I64, int64(i))
	}
	b.N = BatchSize
	g.Consume(ctx, b) // creates the 16 groups and the scratch buffer
	if n := testing.AllocsPerRun(10, func() {
		g.Consume(ctx, b)
	}); n > 0 {
		t.Fatalf("steady-state Consume allocates %.1f times per run, want 0", n)
	}
}

// groupByManyRun aggregates rows keyed 0..groups-1, each key twice, on two
// workers taking alternate batches, emits the result and releases the
// sink: one keyed group-by with many groups, start to end.
func groupByManyRun(b *Batch, groups int, out Operator) *GroupBySink {
	g := &GroupBySink{
		Keys:     []int{0},
		Aggs:     []AggSpec{{Kind: AggCount}, {Kind: AggSumI, Col: 1}},
		KeyTypes: []storage.Type{storage.Int64},
		KeyCaps:  []int{0},
	}
	g.Open(2)
	ctxs := [2]*Ctx{{Worker: 0, Workers: 2}, {Worker: 1, Workers: 2}}
	for i := 0; i < 2*groups/BatchSize; i++ {
		g.Consume(ctxs[i%2], b)
		for j := range b.Vecs[0].I64 {
			b.Vecs[0].I64[j] = (b.Vecs[0].I64[j] + BatchSize) % int64(groups)
		}
	}
	g.Close()
	src := g.Source()
	for task := 0; task < src.Tasks(); task++ {
		src.Emit(ctxs[0], task, out)
	}
	return g
}

// TestGroupBySteadyStateAllocation pins what building the group-by on
// pooled pages buys: once the pool is warm, a keyed group-by over 131 072
// groups allocates about 30 KB a run. Go maps keyed by a heap string per
// group, with growing state arrays and a merged copy, allocate about 83 MB
// a run: the bound, 1 MiB, fails them by 80x.
func TestGroupBySteadyStateAllocation(t *testing.T) {
	const groups = 1 << 17
	b := NewBatch([]storage.Type{storage.Int64, storage.Int64}, []int{0, 0})
	for i := 0; i < BatchSize; i++ {
		b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(i))
		b.Vecs[1].I64 = append(b.Vecs[1].I64, int64(i%7))
	}
	b.N = BatchSize
	out := &countOp{}
	groupByManyRun(b, groups, out).Release() // fills the pool
	if out.rows != groups {
		t.Fatalf("%d groups, want %d", out.rows, groups)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		groupByManyRun(b, groups, out).Release()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(1 << 20); perRun > limit {
		t.Fatalf("steady-state group-by allocates %d B per run, want <= %d B", perRun, limit)
	}
}
