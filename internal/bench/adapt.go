package bench

import (
	"fmt"
	"os"

	"partitionjoin/internal/core"
	"partitionjoin/internal/plan"
)

// AdaptSweep is the estimate-error experiment behind `joinbench -exp adapt`:
// it corrupts every plan-time cardinality estimate by a factor (1/16x .. 16x)
// and measures how far the resulting runs drift from the correctly-planned
// oracle. The budget is sized so that at truth nothing fits resident — the
// oracle's correct answer is a radix join spilling to disk. Underestimates
// make the plan-time ladder fall back to the BHJ ("the build looks tiny, do
// not partition"); the adaptive run must then detect the overrun mid-build
// and migrate to radix partitions, while the static run blows straight past
// the budget — the cliff this experiment exists to show the absence of.
//
// Three runs per error factor: the oracle (true estimates, adaptation off),
// static (corrupted estimates, adaptation off), and adaptive (corrupted
// estimates, adaptation on). All three must agree on the checksum; the
// adaptive run is expected to stay within 1.5x of the oracle's wall clock
// and within the oracle's memory envelope, at every point of the sweep.
func AdaptSweep(scale float64, errs []float64, cfg core.Config) (*Table, error) {
	spec := WorkloadA(scale)
	build, probe := spec.Tables()
	// Half the raw build bytes: the planner's build-only projection (packed
	// rows, what a truthful estimate reports) is 2x this budget, so the
	// correctly-planned oracle partitions and spills — while a >=4x
	// underestimate shrinks the projection under the budget and sends the
	// static plan down the BHJ path, whose real footprint (rows + directory
	// + entries, ~6.8x the budget) blows straight past it.
	budget := spec.BuildBytes() / 2
	spillDir, err := os.MkdirTemp("", "bench-adapt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)

	t := &Table{
		Title: fmt.Sprintf("Adaptation: estimate-error sweep, workload A (scale %g, budget %s)",
			scale, mb(budget)),
		Header: []string{"estimate err", "oracle", "static", "adaptive",
			"adaptive/oracle", "static peak", "adaptive peak", "adaptations"},
	}

	oracle, err := RunDBMS(build, probe, nil, DBMSOpts{
		Algo: plan.RJ, Core: cfg, MemBudget: budget, SpillDir: spillDir, NoAdapt: true,
	})
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		static, err := RunDBMS(build, probe, nil, DBMSOpts{
			Algo: plan.RJ, Core: cfg, MemBudget: budget, SpillDir: spillDir,
			NoAdapt: true, EstimateScale: e,
		})
		if err != nil {
			return nil, err
		}
		adaptive, err := RunDBMS(build, probe, nil, DBMSOpts{
			Algo: plan.RJ, Core: cfg, MemBudget: budget, SpillDir: spillDir,
			EstimateScale: e,
		})
		if err != nil {
			return nil, err
		}
		if static.Checksum != oracle.Checksum || adaptive.Checksum != oracle.Checksum {
			return nil, fmt.Errorf("bench adapt: checksum diverged at estimate error %gx", e)
		}
		a := adaptive.Adapt
		t.Add(fmt.Sprintf("%gx", e),
			mt(oracle.Throughput), mt(static.Throughput), mt(adaptive.Throughput),
			f2(oracle.Throughput/adaptive.Throughput),
			mb(static.MemPeak), mb(adaptive.MemPeak),
			fmt.Sprintf("%dm/%ds/%dr", a.Migrations, a.Splits, a.Revisions()))
		for _, ev := range a.Events {
			t.Notes = append(t.Notes, fmt.Sprintf("%gx: %s", e, ev))
		}
	}
	return t, nil
}
