package plan

import (
	"partitionjoin/internal/adapt"
	"partitionjoin/internal/admit"
	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/spill"
	"partitionjoin/internal/storage"
)

// Options configures plan execution.
type Options struct {
	// Workers is the pipeline parallelism; <= 0 uses GOMAXPROCS.
	Workers int
	// Algo is the default join implementation; PerJoin overrides it for
	// individual join IDs (the per-join swap of Section 5.3.2).
	Algo    JoinAlgo
	PerJoin map[int]JoinAlgo
	// Core tunes the radix joins.
	Core core.Config
	// Meter, when set, records per-phase memory traffic.
	Meter *meter.Meter
	// Stats, when set, collects per-join cardinalities and widths.
	Stats *StatsCollector
	// MemBudget, when > 0, is the query's memory budget in bytes. The
	// governor steers radix joins to degrade (reduced fan-out, BHJ
	// fallback) when their projected footprint would exceed it; it never
	// aborts a query. Degradations are reported in ExecResult.Degraded.
	MemBudget int64
	// SpillDir, when non-empty, arms the last rung of the degradation
	// ladder: radix joins may evict partitions to checksummed run files in
	// a query-private temp directory under this path, and reload them one
	// pair at a time in the join phase. The directory is removed when the
	// query ends, is cancelled, or panics. Only effective together with
	// MemBudget — without a budget nothing ever spills.
	SpillDir string
	// DataDir, when non-empty, is the column store directory the query's
	// tables were opened from. Its only planner-level effect is a default:
	// when SpillDir is empty, spills go to <DataDir>/spill, so a server
	// pointed at a data directory gets co-located spill space for free.
	// Buffer-pool counters flow through the scanned tables' pagers
	// regardless of this field (ExecResult.Pool).
	DataDir string
	// Broker, when set, routes the query through process-wide admission
	// control: ExecuteErr reserves MemBudget bytes (or the broker's
	// per-query default when MemBudget is 0) from the shared pool before
	// running and releases the reservation when done. The query may queue
	// for admission, be shed with admit.ErrOverloaded under overload, or
	// be cancelled by the stuck-query watchdog (admit.ErrStalled). The
	// governor's budget becomes the live reservation, growable from the
	// pool, so degradation and spill decisions consult it rather than the
	// static MemBudget.
	Broker *admit.Broker
	// Reservation, when set, is an admission already granted by the caller:
	// the executor uses it as the query's live budget (growable backing,
	// watchdog progress counter) but neither admits nor releases — the
	// caller owns the reservation's lifetime and must run the query under
	// the context Broker.Admit returned, so the watchdog's cancel reaches
	// the pipelines. This is how a server holds one reservation across
	// execution AND result streaming, releasing only when the client has
	// consumed (or abandoned) the rows. Takes precedence over Broker.
	Reservation *admit.Reservation
	// NoScanPushdown disables the filter-into-scan rewrite (zone-map
	// pruning and raw-storage prefiltering); used by differential tests and
	// A/B benchmarks. NoDictCodes likewise disables the dictionary
	// code-packing rewrite.
	NoScanPushdown bool
	NoDictCodes    bool
	// NoAdapt disables runtime adaptation (mid-build BHJ→radix migration,
	// sketch-driven fan-out, skewed-partition splits, reservation
	// revision), freezing every join decision at plan time — the A/B gate
	// for differential tests and the `-no-adapt` flags.
	NoAdapt bool
	// EstimateScale, when > 0 and != 1, multiplies every plan-time
	// cardinality estimate — a test and benchmark knob simulating optimizer
	// mis-estimation (16 = everything looks 16x bigger than it is). The
	// executed data is untouched; only the planner's beliefs are corrupted.
	EstimateScale float64
}

// DefaultOptions runs everything through the BHJ at full parallelism.
func DefaultOptions() Options {
	return Options{Algo: BHJ, Core: core.DefaultConfig()}
}

func (o Options) algoFor(id int) JoinAlgo {
	if a, ok := o.PerJoin[id]; ok {
		return a
	}
	return o.Algo
}

// opBuilder creates one per-worker operator feeding next.
type opBuilder func(ctx *exec.Ctx, next exec.Operator) exec.Operator

// sweep records a pending extra pipeline sharing the main pipeline's sink:
// a left-outer/semi/anti build sweep (join set), or any deferred source —
// e.g. an adaptive join's partition-pair pipeline, which has zero tasks
// unless the build migrated (src set). Rows flow through the chain suffix
// starting at opIdx into the pipeline's final sink.
type sweep struct {
	join        *core.HashJoin
	src         exec.Source // overrides join when set
	opIdx       int
	probeTypes  []storage.Type
	wantMatched bool
}

// pipe is a pipeline under construction.
type pipe struct {
	source exec.Source
	ops    []opBuilder
	cols   []ColRef
	sweeps []sweep
}

type compiler struct {
	opts      Options
	gov       *govern.Governor
	adapt     *adapt.Controller // nil when Options.NoAdapt
	spillDir  *spill.Dir        // non-nil when Options.SpillDir is set
	spills    []*core.JoinSpill
	radix     []*core.RadixJoin   // every radix join compiled, for the unwind sweep
	hashJoins []*core.HashJoin    // every BHJ compiled, released after the query
	groupBys  []*exec.GroupBySink // every group-by compiled, released after the query
	workers   int                 // resolved driver parallelism (never <= 0)
	pipelines []*exec.Pipeline
	harvests  []func()
	// pagers are the distinct stats-capable pagers behind the plan's
	// scanned tables; the executor reports their counter deltas as the
	// query's buffer-pool activity (ExecResult.Pool).
	pagers []storage.StatsPager
}

// notePager records a scanned table's pager once, when it can report stats.
func (c *compiler) notePager(t *storage.Table) {
	sp, ok := t.Pager.(storage.StatsPager)
	if !ok {
		return
	}
	for _, p := range c.pagers {
		if p == sp {
			return
		}
	}
	c.pagers = append(c.pagers, sp)
}

// scaled applies the EstimateScale corruption knob to a cardinality
// estimate (negative estimates mean "unknown" and pass through).
func (c *compiler) scaled(rows int64) int64 {
	s := c.opts.EstimateScale
	if rows < 0 || s <= 0 || s == 1 {
		return rows
	}
	return int64(float64(rows) * s)
}

// terminate closes a pipe with a breaker sink, emitting its pipeline and
// any pending left-outer sweep pipelines that share the same sink.
func (c *compiler) terminate(p *pipe, sink exec.Sink, name string) {
	if _, ok := p.source.(*core.PartitionJoinSource); ok && name != "" {
		// The radix join phase runs fused with this pipeline; label it
		// so the Figure 10 phase breakdown shows it as the join.
		name = "join+" + name
	}
	shared := &sharedSink{S: sink, expected: 1 + len(p.sweeps)}
	mk := func(ops []opBuilder) func(ctx *exec.Ctx) exec.Operator {
		return func(ctx *exec.Ctx) exec.Operator {
			var op exec.Operator = &exec.SinkOp{S: shared}
			for i := len(ops) - 1; i >= 0; i-- {
				op = ops[i](ctx, op)
			}
			return op
		}
	}
	// Pipelines sharing one sink can have different clamped worker counts
	// (a sweep pipeline may have more tasks than the main pipeline); the
	// sink opens once at full driver capacity so every sharer's worker
	// ids fit its per-worker slots.
	c.pipelines = append(c.pipelines, &exec.Pipeline{
		Name:        name,
		Source:      p.source,
		NewChain:    mk(p.ops),
		Sink:        shared,
		SinkWorkers: c.workers,
	})
	for _, s := range p.sweeps {
		src := s.src
		if src == nil {
			src = &core.UnmatchedBuildSource{
				J: s.join, ProbeTypes: s.probeTypes, WantMatched: s.wantMatched,
			}
		}
		c.pipelines = append(c.pipelines, &exec.Pipeline{
			Source:      src,
			NewChain:    mk(p.ops[s.opIdx:]),
			Sink:        shared,
			SinkWorkers: c.workers,
		})
	}
}

// sharedSink lets several pipelines feed one sink: the underlying sink
// opens on the first Open and closes on the last Close.
type sharedSink struct {
	S        exec.Sink
	expected int
	opens    int
	closes   int
}

// Open implements exec.Sink.
func (s *sharedSink) Open(workers int) {
	s.opens++
	if s.opens == 1 {
		s.S.Open(workers)
	}
}

// Consume implements exec.Sink.
func (s *sharedSink) Consume(ctx *exec.Ctx, b *exec.Batch) { s.S.Consume(ctx, b) }

// Close implements exec.Sink.
func (s *sharedSink) Close() {
	s.closes++
	if s.closes == s.expected {
		s.S.Close()
	}
}

// vecTypes converts refs to vector type/cap slices.
func vecTypes(cols []ColRef) ([]storage.Type, []int) {
	ts := make([]storage.Type, len(cols))
	caps := make([]int, len(cols))
	for i, c := range cols {
		ts[i] = c.Type
		caps[i] = c.StrCap
	}
	return ts, caps
}

// compile lowers a node to a pipe, appending finished pipelines on the way.
func (c *compiler) compile(n Node) *pipe {
	switch n := n.(type) {
	case *ScanNode:
		c.notePager(n.Table)
		var src exec.Source
		var ts *exec.TableSource
		if n.RowID != "" {
			s := exec.NewTableSourceWithRowID(n.Table, n.Cols...)
			src, ts = s, &s.TableSource
		} else {
			s := exec.NewTableSource(n.Table, n.Cols...)
			src, ts = s, s
		}
		if len(n.Pushed) > 0 {
			ts.SetPushed(n.Pushed)
		}
		if len(n.CodeCols) > 0 {
			codes := make([]bool, len(n.Cols))
			for i, c := range n.Cols {
				codes[i] = n.CodeCols[c]
			}
			ts.SetCodeCols(codes)
		}
		return &pipe{source: src, cols: n.Columns()}

	case *FilterNode:
		p := c.compile(n.Child)
		ix := resolveAll(p.cols, n.Pred.Cols)
		pred := n.Pred
		p.ops = append(p.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
			return &exec.FilterOp{Next: next, Pred: pred.Make(ix)}
		})
		return p

	case *MapNode:
		p := c.compile(n.Child)
		type compiled struct {
			ix []int
			e  int
		}
		// Expressions resolve sequentially: each sees the outputs of the
		// ones before it (the runtime appends vectors in the same order).
		var specs []compiled
		cols := append([]ColRef{}, p.cols...)
		for ei, e := range n.Exprs {
			specs = append(specs, compiled{ix: resolveAll(cols, e.Cols), e: ei})
			cols = append(cols, ColRef{Name: e.Name, Type: e.Type, StrCap: e.StrCap})
		}
		exprs := n.Exprs
		p.ops = append(p.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
			op := &scalarOp{next: next}
			for _, s := range specs {
				e := exprs[s.e]
				op.fns = append(op.fns, e.Make(s.ix))
				op.vecs = append(op.vecs, exec.NewVector(e.Type, e.StrCap))
			}
			return op
		})
		p.cols = n.Columns()
		return p

	case *RenameNode:
		p := c.compile(n.Child)
		p.cols = renameCols(p.cols, n.From, n.To)
		return p

	case *ProjectNode:
		p := c.compile(n.Child)
		idx := resolveAll(p.cols, n.Cols)
		p.ops = append(p.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
			return &exec.ProjectOp{Next: next, Idx: idx}
		})
		p.cols = n.Columns()
		return p

	case *LateLoadNode:
		p := c.compile(n.Child)
		rid := mustIdx(p.cols, n.RowID)
		tbl, colNames := n.Table, n.Cols
		p.ops = append(p.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
			return exec.NewLateLoadOp(next, tbl, rid, colNames...)
		})
		p.cols = n.Columns()
		return p

	case *JoinNode:
		return c.compileJoin(n)

	case *DecodeNode:
		p := c.compile(n.Child)
		type dspec struct {
			idx  int
			dict *storage.DictColumn
			cap  int
		}
		var specs []dspec
		decodeAll := len(n.Cols) == 0
		for i, ref := range p.cols {
			if ref.Dict != nil && (decodeAll || containsName(n.Cols, ref.Name)) {
				specs = append(specs, dspec{idx: i, dict: ref.Dict, cap: ref.StrCap})
			}
		}
		if len(specs) > 0 {
			p.ops = append(p.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
				op := &decodeOp{next: next,
					vecs:  make([]exec.Vector, len(specs)),
					saved: make([]exec.Vector, len(specs))}
				for i, s := range specs {
					op.idx = append(op.idx, s.idx)
					op.dicts = append(op.dicts, s.dict)
					op.vecs[i] = exec.NewVector(storage.String, s.cap)
				}
				return op
			})
		}
		p.cols = n.Columns()
		return p

	case *GroupByNode:
		p := c.compile(n.Child)
		sink := &exec.GroupBySink{Gov: c.gov}
		c.groupBys = append(c.groupBys, sink)
		kt := make([]storage.Type, len(n.Keys))
		kc := make([]int, len(n.Keys))
		for i, k := range n.Keys {
			ref := mustRef(p.cols, k)
			kt[i] = ref.Type
			kc[i] = ref.StrCap
			sink.Keys = append(sink.Keys, mustIdx(p.cols, k))
		}
		sink.KeyTypes, sink.KeyCaps = kt, kc
		for _, a := range n.Aggs {
			col := -1
			if a.Col != "" {
				col = mustIdx(p.cols, a.Col)
			}
			sink.Aggs = append(sink.Aggs, exec.AggSpec{Kind: a.Kind, Col: col})
		}
		c.terminate(p, sink, "aggregate")
		return &pipe{source: sink.Source(), cols: n.Columns()}

	case *OrderByNode:
		p := c.compile(n.Child)
		ts, caps := vecTypes(p.cols)
		sink := &exec.SortSink{Limit: n.Limit, Types: ts, Caps: caps, Gov: c.gov}
		for _, k := range n.Keys {
			sink.Keys = append(sink.Keys, exec.SortKey{Col: mustIdx(p.cols, k.Col), Desc: k.Desc})
		}
		c.terminate(p, sink, "sort")
		return &pipe{source: sink.Source(), cols: n.Columns()}
	}
	panic("plan: unknown node type")
}

// scalarOp evaluates compiled scalar expressions, temporarily extending the
// batch with the computed vectors.
type scalarOp struct {
	next exec.Operator
	fns  []func(b *exec.Batch, out *exec.Vector)
	vecs []exec.Vector
}

// Process implements exec.Operator.
func (o *scalarOp) Process(ctx *exec.Ctx, b *exec.Batch) {
	if b.N == 0 {
		return
	}
	n := len(b.Vecs)
	for i, f := range o.fns {
		o.vecs[i].Reset()
		f(b, &o.vecs[i])
		b.Vecs = append(b.Vecs, o.vecs[i])
	}
	o.next.Process(ctx, b)
	copy(o.vecs, b.Vecs[n:])
	b.Vecs = b.Vecs[:n]
}

// Flush implements exec.Operator.
func (o *scalarOp) Flush(ctx *exec.Ctx) { o.next.Flush(ctx) }

func resolveAll(cols []ColRef, names []string) []int {
	ix := make([]int, len(names))
	for i, n := range names {
		ix[i] = mustIdx(cols, n)
	}
	return ix
}

func renameCols(cols []ColRef, from, to []string) []ColRef {
	out := append([]ColRef{}, cols...)
	for i, f := range from {
		out[mustIdx(out, f)].Name = to[i]
	}
	return out
}
