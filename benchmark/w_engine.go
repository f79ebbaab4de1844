package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/bench"
	"partitionjoin/internal/meter"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/storage"
	"partitionjoin/internal/tpch"
)

var joinAlgos = []plan.JoinAlgo{plan.BHJ, plan.BRJ, plan.RJ}

// workloadA is bench.WorkloadA(1/den) under the run's seed at a foreign-key
// selectivity: the paper's 1:16 16-byte-tuple shape.
func workloadA(den int, seed int64, sel float64) bench.Spec {
	s := bench.WorkloadA(1 / float64(den))
	s.Seed = seed
	s.Selectivity = sel
	return s
}

// referenceCount computes the reference for a count join: BHJ, RAM, one
// process.
func referenceCount(procs int, build, probe *storage.Table) (digest, error) {
	res, err := plan.ExecuteErr(context.Background(), engineOpts(procs, plan.BHJ), countJoin(build, probe))
	if err != nil {
		return digest{}, err
	}
	return digestResult(res.Result), nil
}

// microJoin is the paper's workload A through plan.ExecuteErr: core does
// essentially all the work.
var microJoin = workload{
	name:    "micro_join",
	why:     "paper workload A count(*) join under BHJ/BRJ/RJ at selectivity 1.0 and 0.05: core (hash build/probe, radix scatter, Bloom) does all the work; where partitioning can win and a kernel change must show",
	clients: 1,
	setup: func(e env) (*instance, error) {
		type side struct {
			name  string
			probe *storage.Table
			want  digest
		}
		var build *storage.Table
		sides := make([]side, 2)
		for i, sel := range []float64{1.0, 0.05} {
			b, p := workloadA(e.sz.MicroScaleDen, e.seed, sel).Tables()
			build = b
			want, err := referenceCount(e.procs, b, p)
			if err != nil {
				return nil, err
			}
			sides[i] = side{fmt.Sprintf("sel%.2f", sel), p, want}
		}
		mk := func(s side, a plan.JoinAlgo) op {
			return op{
				class: a.String() + "/" + s.name, want: s.want,
				run: func(rec *opRec) (digest, error) {
					res, err := execPlan(context.Background(), rec, s.name, engineOpts(e.procs, a), countJoin(build, s.probe))
					if err != nil {
						return digest{}, err
					}
					return digestTraced(rec, res.Result), nil
				},
			}
		}
		var cycle []op
		for _, s := range sides {
			for _, a := range joinAlgos {
				cycle = append(cycle, mk(s, a))
			}
		}
		// A seventh op doubles RJ at selectivity 0.05, the middle class of
		// the latency mixture (two classes are faster, BHJ at 1.0 ties with
		// it, two are slower), so the median falls inside that mass and
		// not in a gap between classes.
		cycle = append(cycle, mk(sides[1], plan.RJ))
		return &instance{
			clients: [][]op{repeatOps(cycle, e.sz.MicroCycles)},
			warm:    cycle[:6],
			close:   func() {},
		}, nil
	},
}

// repeatOps returns cycle repeated n times.
func repeatOps(cycle []op, n int) []op {
	out := make([]op, 0, n*len(cycle))
	for i := 0; i < n; i++ {
		out = append(out, cycle...)
	}
	return out
}

// tpchEngine is the paper's Fig. 11: every tier-1 TPC-H join query under
// each join algorithm.
var tpchEngine = workload{
	name:    "tpch_engine",
	why:     "the 19 TPC-H join queries under BHJ, BRJ and RJ (paper Fig. 11): small build sides, selective scans, group-by; exec scan/aggregate share the time with core and BHJ mostly wins",
	clients: 1,
	setup: func(e env) (*instance, error) {
		db := tpch.Generate(e.sz.TPCHSF, e.seed)
		var pass []op
		for _, q := range tpch.QueryNumbers {
			_, ref, err := tpch.RunQuery(db, q, engineOpts(e.procs, plan.BHJ), false)
			if err != nil {
				return nil, err
			}
			want := digestResult(ref.Result)
			// BHJ, the algorithm the engine runs by default, goes twice per
			// query: half the ops are then BHJ executions, whose latencies
			// lie close together, and the median of the mixture falls among
			// them instead of in the sparse region between BHJ and RJ times.
			for _, a := range append(joinAlgos, plan.BHJ) {
				pass = append(pass, op{
					class: fmt.Sprintf("q%d/%v", q, a), want: want,
					run: func(rec *opRec) (digest, error) { return runTPCH(rec, db, q, engineOpts(e.procs, a)) },
				})
			}
		}
		return &instance{
			clients: [][]op{repeatOps(pass, e.sz.TPCHPasses)},
			warm:    pass,
			close:   func() {},
		}, nil
	},
}

// runTPCH executes one TPC-H query. RunQuery drives the query's stages
// itself, so the traced form attaches one meter and one stats collector to
// all of them and records the call as a single plan-layer span.
func runTPCH(rec *opRec, db *tpch.DB, q int, opts plan.Options) (digest, error) {
	if rec == nil {
		_, res, err := tpch.RunQuery(db, q, opts, false)
		if err != nil {
			return digest{}, err
		}
		return digestResult(res.Result), nil
	}
	st := plan.NewStatsCollector()
	opts.Stats = st
	epoch := time.Now()
	opts.Meter = meter.New()
	r, res, err := tpch.RunQuery(db, q, opts, false)
	call := rec.span("plan", "tpch.RunQuery", epoch, time.Now())
	if err != nil {
		return digest{}, err
	}
	// The last stage's ExecResult carries the governor and spill blocks;
	// the meter and the runner carry the sums over all stages.
	x := observeExec(opts.Algo, epoch, res, opts.Meter, st)
	x.dur, x.rows = r.Dur, r.Rows
	x.scan = opts.Meter.Scan()
	ad := opts.Meter.Adapt()
	x.migrations, x.splits, x.revisions = ad.Migrations, ad.PartitionSplits, ad.ReservationRevisions
	x.spillRead, x.spillWritten = opts.Meter.SpillTotals()
	rec.record(call, x)
	rec.obs.add(fmt.Sprintf("group.q%d.%v", q, opts.Algo), ms(r.Dur))
	return digestTraced(rec, res.Result), nil
}

// memPressure runs the radix join of micro_join with less memory than it
// wants — enough for the planner to keep the radix join, too little to hold
// its partitions — behind a broker that admits one query at a time.
var memPressure = workload{
	name:    "engine_mem_pressure",
	why:     "workload A radix join under a memory budget that forces spilling, 2 callers behind a broker that admits one at a time: admit queueing, govern degradation and spill I/O are on the blocking path",
	clients: 2,
	setup: func(e env) (*instance, error) {
		build, probe := workloadA(e.sz.PressureScaleDen, e.seed, 1.0).Tables()
		want, err := referenceCount(e.procs, build, probe)
		if err != nil {
			return nil, err
		}
		free, err := plan.ExecuteErr(context.Background(), engineOpts(e.procs, plan.RJ), countJoin(build, probe))
		if err != nil {
			return nil, err
		}
		budget := int64(float64(free.MemPeak) * e.sz.PressureBudgetFrac)
		spillDir := filepath.Join(e.dir, "spill")
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, err
		}
		// The pool holds exactly one reservation: the callers take turns,
		// and a running query can never grow its budget out of the pool, so
		// every op spills the same partitions. MaxWait is far beyond any
		// queueing two callers can cause: a shed op would be a failure.
		broker := admit.NewBroker(admit.Config{
			GlobalMem: budget, QueueDepth: 8, MaxWait: time.Minute,
		})
		o := op{
			class: "RJ/budget", want: want,
			run: func(rec *opRec) (digest, error) {
				opts := engineOpts(e.procs, plan.RJ)
				opts.MemBudget, opts.SpillDir, opts.Broker = budget, spillDir, broker
				res, err := execPlan(context.Background(), rec, "budget", opts, countJoin(build, probe))
				if err != nil {
					return digest{}, err
				}
				return digestTraced(rec, res.Result), nil
			},
		}
		ops := repeatOps([]op{o}, e.sz.PressureOps)
		return &instance{
			clients: [][]op{ops, ops},
			warm:    []op{o},
			mark:    func() counters { return counters{"admit.sheds": float64(broker.Sheds())} },
			sample:  func(obs *observations) { obs.add("admit.queued", float64(broker.Queued())) },
			layers:  brokerLayers,
			close: func() {
				broker.Close()
				os.RemoveAll(spillDir)
			},
		}, nil
	},
}

// brokerLayers reports the broker's own counters for workloads that run
// behind one.
func brokerLayers(in layerInput, out map[string]float64) {
	out["admit.sheds"] = in.delta["admit.sheds"]
	out["admit.queued_max"] = maxOf(in.obs.get("admit.queued"))
}
