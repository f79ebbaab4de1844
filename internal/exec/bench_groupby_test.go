package exec

import (
	"testing"

	"partitionjoin/internal/storage"
)

// benchGroupBy measures the keyed aggregation kernel end to end on one
// worker: 256 batches of two int64 columns grouped by the first, with COUNT
// and SUM, then Close, Emit and Release. The pool is warm after the first
// iteration, so -benchmem shows what a run allocates beyond its pages.
func benchGroupBy(b *testing.B, groups int) {
	const batches = 256
	in := NewBatch([]storage.Type{storage.Int64, storage.Int64}, []int{0, 0})
	for i := 0; i < BatchSize; i++ {
		in.Vecs[0].I64 = append(in.Vecs[0].I64, 0)
		in.Vecs[1].I64 = append(in.Vecs[1].I64, int64(i%7))
	}
	in.N = BatchSize
	ctx := &Ctx{Workers: 1}
	out := &countOp{}
	b.SetBytes(batches * BatchSize * 16)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		g := &GroupBySink{
			Keys:     []int{0},
			Aggs:     []AggSpec{{Kind: AggCount}, {Kind: AggSumI, Col: 1}},
			KeyTypes: []storage.Type{storage.Int64},
			KeyCaps:  []int{0},
		}
		g.Open(1)
		for k := 0; k < batches; k++ {
			for i := range in.Vecs[0].I64 {
				in.Vecs[0].I64[i] = int64((k*BatchSize + i) * 7919 % groups)
			}
			g.Consume(ctx, in)
		}
		g.Close()
		src := g.Source()
		for task := 0; task < src.Tasks(); task++ {
			src.Emit(ctx, task, out)
		}
		g.Release()
	}
}

// BenchmarkGroupByFewGroups aggregates 262 144 rows into 16 groups: the
// table stays in cache and the cost is the probe and the state updates.
func BenchmarkGroupByFewGroups(b *testing.B) { benchGroupBy(b, 16) }

// BenchmarkGroupByManyGroups aggregates 262 144 rows into 131 072 groups:
// the directory doubles thirteen times and the result is 128 batches.
func BenchmarkGroupByManyGroups(b *testing.B) { benchGroupBy(b, 1<<17) }
