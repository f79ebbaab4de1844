package plan

import (
	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/storage"
)

// matList assembles the materialization list of one join side: keys first
// (so layout key columns are 0..len(keys)-1), then payload, then residual
// columns, deduplicated.
func matList(keys, payload []string, residual []string) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, k := range keys {
		add(k)
	}
	for _, p := range payload {
		add(p)
	}
	for _, r := range residual {
		add(r)
	}
	return out
}

// layoutFor builds the packed-row layout of a side from its column refs.
func layoutFor(cols []ColRef, mat []string, nkeys int) *core.Layout {
	types := make([]storage.Type, len(mat))
	widths := make([]int, len(mat))
	for i, name := range mat {
		ref := mustRef(cols, name)
		types[i] = ref.Type
		widths[i] = ref.Type.Width(ref.StrCap)
	}
	keyCols := make([]int, nkeys)
	for i := range keyCols {
		keyCols[i] = i
	}
	return core.NewLayout(types, widths, keyCols)
}

// positions maps names to their position within mat.
func positions(mat []string, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		for j, m := range mat {
			if m == n {
				out[i] = j
				break
			}
		}
	}
	return out
}

func (c *compiler) compileJoin(n *JoinNode) *pipe {
	algo := c.opts.algoFor(n.ID)
	if n.HasAlgo {
		algo = n.Algo
	}
	bp := c.compile(n.Build)
	pp := c.compile(n.Probe)

	var resBuild, resProbe []string
	for _, r := range n.ResidualNe {
		resBuild = append(resBuild, r[0])
		resProbe = append(resProbe, r[1])
	}

	buildMat := matList(n.BuildKeys, n.BuildPay, resBuild)
	buildLayout := layoutFor(bp.cols, buildMat, len(n.BuildKeys))
	buildCols := resolveAll(bp.cols, buildMat)
	buildKeyBatch := resolveAll(bp.cols, n.BuildKeys)
	buildOut := positions(buildMat, n.BuildPay)
	resBuildPos := positions(buildMat, resBuild)

	probeKeyBatch := resolveAll(pp.cols, n.ProbeKeys)

	// Probe-side materialization width, whether or not this algorithm
	// materializes it (the BHJ streams the probe side; stats report what
	// a radix join would write).
	probeMatAll := matList(n.ProbeKeys, n.ProbePay, resProbe)
	probeLayoutStat := layoutFor(pp.cols, probeMatAll, len(n.ProbeKeys))
	probeColsAll := resolveAll(pp.cols, probeMatAll)
	probeOutAll := positions(probeMatAll, n.ProbePay)
	resProbePos := positions(probeMatAll, resProbe)

	// Per-join runtime adaptation state (nil when disabled): the build side
	// feeds its key-correlation sketch, and divergence from these plan-time
	// estimates drives migration and reservation revision.
	st := c.adapt.Join(n.ID)
	bEst, pEst := c.scaled(estimateRows(n.Build)), c.scaled(estimateRows(n.Probe))
	if st != nil {
		var pBytes int64
		if pEst > 0 {
			pBytes = pEst * int64(probeLayoutStat.Size)
		}
		st.SetPlanEstimates(bEst, pBytes)
	}

	// mkRadix builds the radix join machinery shared by the static radix
	// branch and the adaptive BHJ's runtime escape hatch.
	mkRadix := func(bloom bool) *core.RadixJoin {
		cfg := c.opts.Core
		cfg.Bloom = bloom
		j := core.NewRadixJoin(cfg, n.Kind, c.opts.Meter,
			buildLayout, buildCols, buildKeyBatch, -1,
			probeLayoutStat, probeColsAll, probeKeyBatch, -1,
			buildOut, probeOutAll)
		j.Gov = c.gov
		j.Adapt = st
		c.radix = append(c.radix, j)
		if c.spillDir != nil {
			j.Spill = core.NewJoinSpill(c.spillDir, c.gov, c.opts.Meter, n.ID)
			c.spills = append(c.spills, j.Spill)
		}
		if len(n.ResidualNe) > 0 {
			bl, pl := buildLayout, probeLayoutStat
			bpos, ppos := resBuildPos, resProbePos
			j.Residual = func(brow, prow []byte) bool {
				for k, bc := range bpos {
					if bl.GetI64(brow, bc) == pl.GetI64(prow, ppos[k]) {
						return false
					}
				}
				return true
			}
		}
		return j
	}

	// Plan-time rung of the degradation ladder: when a budget is set and
	// the radix join's projected partition footprint (both sides fully
	// materialized into partitions, the paper's Section 4.5 memory shape)
	// cannot fit, answer the paper's question with "do not partition" and
	// fall back to the BHJ, which materializes only the build side. When
	// even the build side alone exceeds the budget the BHJ would blow it
	// too; with a spill directory configured, keep the radix join and let
	// it spill partitions to disk instead (the last rung).
	if algo != BHJ && c.gov.Budgeted() {
		bRows, pRows := bEst, pEst
		if bRows >= 0 && pRows >= 0 {
			projected := bRows*int64(buildLayout.Size) + pRows*int64(probeLayoutStat.Size)
			buildOnly := bRows * int64(buildLayout.Size)
			if c.gov.WouldExceed(projected) {
				if c.spillDir != nil && c.gov.WouldExceed(buildOnly) {
					c.gov.Note("join %d: build side alone (%d B) exceeds budget %d B; keeping radix join, spilling to disk",
						n.ID, buildOnly, c.gov.Budget())
				} else {
					c.gov.Note("join %d: projected radix footprint %d B exceeds budget %d B; falling back to BHJ",
						n.ID, projected, c.gov.Budget())
					algo = BHJ
				}
			}
		}
	}

	if algo == BHJ {
		j := &core.HashJoin{
			Kind:         n.Kind,
			Layout:       buildLayout,
			BuildCols:    buildCols,
			BuildKeyCols: buildKeyBatch,
			BuildHashCol: -1,
			ProbeKeyCols: probeKeyBatch,
			ProbeHashCol: -1,
			ProbeOut:     resolveAll(pp.cols, n.ProbePay),
			BuildOut:     buildOut,
			Meter:        c.opts.Meter,
			Gov:          c.gov,
		}
		c.hashJoins = append(c.hashJoins, j)
		if len(n.ResidualNe) > 0 {
			probeVecs := resolveAll(pp.cols, resProbe)
			bl := buildLayout
			bpos := resBuildPos
			j.Residual = func(brow []byte, b *exec.Batch, i int) bool {
				for k, bc := range bpos {
					if bl.GetI64(brow, bc) == b.Vecs[probeVecs[k]].I64[i] {
						return false
					}
				}
				return true
			}
		}
		// Runtime escape hatch: with adaptation on, a budget to respect, and
		// a spill directory to escape to, wire the BHJ through the adaptive
		// join so a build that outgrows the budget can migrate to radix
		// partitions mid-build instead of blowing past it. The radix twin
		// shares the build layout, so migration is a re-scatter of already
		// packed rows; its sinks are Quiet (they run inside the BHJ's
		// pipeline phases) and its join pipeline is a deferred sweep with
		// zero tasks unless the migration actually happened.
		var aj *core.AdaptiveJoin
		if st != nil && c.gov.Budgeted() && c.spillDir != nil {
			rj := mkRadix(false)
			rj.BuildSink.Quiet = true
			rj.ProbeSink.Quiet = true
			aj = &core.AdaptiveJoin{BHJ: j, RJ: rj, St: st, MaxWorkers: c.workers}
		}
		opIdx := len(pp.ops)
		if aj != nil {
			c.terminate(bp, aj.BuildSink(), "build")
			pp.ops = append(pp.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
				return aj.ProbeOp(next)
			})
		} else {
			c.terminate(bp, j.BuildSink(), "build")
			pp.ops = append(pp.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
				return j.ProbeOp(next)
			})
		}
		switch n.Kind {
		case core.LeftOuter:
			var pts []storage.Type
			for _, name := range n.ProbePay {
				pts = append(pts, mustRef(pp.cols, name).Type)
			}
			pp.sweeps = append(pp.sweeps, sweep{join: j, opIdx: opIdx + 1, probeTypes: pts})
		case core.LeftSemi:
			pp.sweeps = append(pp.sweeps, sweep{join: j, opIdx: opIdx + 1, wantMatched: true})
		case core.LeftAnti:
			pp.sweeps = append(pp.sweeps, sweep{join: j, opIdx: opIdx + 1})
		}
		if aj != nil {
			// The deferred radix join pipeline; the BHJ sweeps above remain
			// correct after a migration because the BHJ table stays empty.
			pp.sweeps = append(pp.sweeps, sweep{src: aj.JoinSource(), opIdx: opIdx + 1})
		}
		if c.opts.Stats != nil {
			stat := &JoinStat{ID: n.ID, Algo: BHJ, Kind: n.Kind.String(),
				BuildTupleBytes: buildLayout.Size, ProbeTupleBytes: probeLayoutStat.Size}
			c.harvests = append(c.harvests, func() {
				if aj != nil && aj.Migrated() {
					stat.Adapted = true
					stat.BuildRows = aj.RJ.BuildSink.Out.Rows
					stat.ProbeRows = aj.RJ.StatProbeRows.Load()
					stat.Matches = aj.RJ.StatMatches.Load()
				} else {
					stat.BuildRows = int64(j.NumBuildRows())
					stat.ProbeRows = j.StatProbeRows.Load()
					stat.Matches = j.StatMatches.Load()
				}
				c.opts.Stats.add(stat)
			})
		}
		pp.cols = n.Columns()
		return pp
	}

	// Radix joins: both sides are materialized into partitions.
	probeHash := -1
	j := mkRadix(algo == BRJ)
	c.terminate(bp, j.BuildSink, "")

	// The Bloom semi-join reducer may only drop probe tuples whose
	// absence cannot change the result: every kind except probe-side
	// anti/mark/right-outer, which must see unmatched probe tuples.
	bloomOK := n.Kind != core.Anti && n.Kind != core.Mark && n.Kind != core.RightOuter
	if algo == BRJ && !bloomOK {
		j.Cfg.Bloom = false
		j.BuildSink.Cfg.Bloom = false
		j.ProbeSink.Cfg.Bloom = false
	} else if algo == BRJ {
		// One shared hash computation feeds the pushed-down Bloom
		// reducer and the partitioner (Section 4.7).
		probeHash = len(pp.cols)
		keyCols := probeKeyBatch
		pp.ops = append(pp.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
			return &core.HashOp{Next: next, KeyCols: keyCols}
		})
		pp.ops = append(pp.ops, func(ctx *exec.Ctx, next exec.Operator) exec.Operator {
			return &core.BloomProbeOp{Next: next, Join: j, HashCol: probeHash}
		})
		j.ProbeSink.HashCol = probeHash
	}
	c.terminate(pp, j.ProbeSink, "")

	if c.opts.Stats != nil {
		stat := &JoinStat{ID: n.ID, Algo: algo, Kind: n.Kind.String(),
			BuildTupleBytes: buildLayout.Size, ProbeTupleBytes: probeLayoutStat.Size}
		c.harvests = append(c.harvests, func() {
			stat.BuildRows = j.BuildSink.Out.Rows
			stat.ProbeRows = j.StatProbeRows.Load()
			stat.Matches = j.StatMatches.Load()
			c.opts.Stats.add(stat)
		})
	}
	return &pipe{source: j.JoinSource(), cols: n.Columns()}
}
