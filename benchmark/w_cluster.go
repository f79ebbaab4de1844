package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/cluster"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/server"
	"partitionjoin/internal/sql"
	"partitionjoin/internal/tpch"
)

// clusterStatements are the four statements of the sharded-execution sweep
// (internal/clusterbench), one per distribution mode the coordinator plans.
func clusterStatements() []stmt {
	return []stmt{
		{name: "scan_agg", sql: `SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS sq, sum(l_extendedprice) AS se, avg(l_discount) AS ad FROM lineitem GROUP BY l_returnflag`},
		{name: "colocated", sql: `SELECT count(*) AS n FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey`},
		{name: "broadcast", sql: `SELECT count(*) AS n FROM lineitem l, part p WHERE l.l_partkey = p.p_partkey`},
		{name: "shuffle", sql: `SELECT count(*) AS n FROM orders o, customer c WHERE o.o_custkey = c.c_custkey`},
	}
}

// clusterMix is one cycle as indices into clusterStatements: five of each
// scaling class and two shuffle joins, spread out. 15:2 puts the median in
// the co-located classes and the 95th percentile inside the shuffle class.
var clusterMix = []int{0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2}

// clusterFabric routes SQL through a coordinator over in-process shard
// servers.
var clusterFabric = workload{
	name:    "cluster_fabric",
	why:     "coordinator over 2 in-process shard servers, 1 client, 15:2 mix of scan/co-located/broadcast ops to shuffle (gather) joins: cluster fragmenting, NDJSON wire, row rebuild and merge dominate",
	clients: 1,
	setup: func(e env) (*instance, error) {
		cat := catalogOf(tpch.Generate(e.sz.ClusterSF, e.seed))
		stmts := clusterStatements()
		if err := reference(cat, e.procs, stmts); err != nil {
			return nil, err
		}
		spec, err := cluster.TPCHSpec(cat)
		if err != nil {
			return nil, err
		}
		n := e.sz.ClusterShards
		ring := cluster.NewRing(n, 0)
		var (
			parts []sql.Catalog
			srvs  []*server.Server
			tss   []*httptest.Server
			addrs []string
		)
		for i := 0; i < n; i++ {
			part := cluster.PartitionCatalog(cat, spec, ring, i)
			// Shards execute every fragment: with their result caches on,
			// a loop over four statements would measure cache replay.
			srv := server.New(server.Config{Workers: 1, NoResultCache: true}, part)
			ts := httptest.NewServer(srv)
			parts, srvs, tss, addrs = append(parts, part), append(srvs, srv), append(tss, ts), append(addrs, ts.URL)
		}
		broker := admit.NewBroker(admit.Config{GlobalMem: 256 << 20, MaxWait: time.Minute})
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n}}
		closeFleet := func() {
			hc.CloseIdleConnections()
			for i := range tss {
				tss[i].Close()
				srvs[i].Drain(10 * time.Second)
			}
			broker.Close()
		}
		coord, err := cluster.New(cluster.Config{
			Shards: addrs, Spec: spec, HTTP: hc,
			ProbeInterval: -1, // no prober: nothing fails here, and no background traffic
			Broker:        broker, MemBudget: 8 << 20, Workers: 1,
		})
		if err != nil {
			closeFleet()
			return nil, err
		}

		crit := map[string]time.Duration{} // staged critical path per statement
		mkOp := func(s stmt) op {
			return op{class: s.name, want: s.want, run: func(rec *opRec) (digest, error) {
				start := time.Now()
				res, err := coord.Query(context.Background(), s.sql, "")
				if err != nil {
					return digest{}, err
				}
				end := time.Now()
				d, err := digestRows(s.want.Kinds, res.Rows)
				if err != nil {
					return digest{}, err
				}
				if rec != nil {
					rec.span("bench", "bench.digest", end, time.Now())
					rec.tr.add(rec.root, rec.op, "plan", "staged:shard.critical_path", start, start.Add(crit[s.name]), true)
					rec.obs.add("cluster.e2e_ms."+s.name, ms(end.Sub(start)))
					rec.obs.add("cluster.gathered", float64(res.Stats.GatheredRows))
				}
				return d, nil
			}}
		}
		var cycle, warm []op
		for _, i := range clusterMix {
			cycle = append(cycle, mkOp(stmts[i]))
		}
		for _, s := range stmts {
			warm = append(warm, mkOp(s))
		}
		return &instance{
			clients: [][]op{repeatOps(cycle, e.sz.ClusterCycles)},
			warm:    warm,
			mark: func() counters {
				return counters{"admit.sheds": float64(broker.Sheds()), "cluster.retries": float64(coord.Statsz().Retries)}
			},
			sample: func(obs *observations) { obs.add("admit.queued", float64(broker.Queued())) },
			// The critical path of a statement is the slowest shard running
			// it directly on its own partition with one worker: what a
			// cluster of real machines, whose fragments overlap, would wait
			// for. Here the shards share the cores, so only this pass can
			// show it.
			staged: func(tr *tracer, obs *observations) error {
				for _, s := range stmts {
					for i, part := range parts {
						var runs []float64
						for r := 0; r < stagedReps; r++ {
							rec, done := stagedOp(tr, obs, fmt.Sprintf("staged/%s/shard%d", s.name, i))
							start := time.Now()
							_, err := runSQL(rec, s.name, part, s.sql, engineOpts(1, plan.BHJ))
							runs = append(runs, ms(time.Since(start)))
							done()
							if err != nil {
								return err
							}
						}
						if d := fromMS(median(runs)); d > crit[s.name] {
							crit[s.name] = d
						}
					}
					obs.add("cluster.crit_ms."+s.name, ms(crit[s.name]))
				}
				return nil
			},
			layers: clusterLayers,
			close: func() {
				coord.Drain(10 * time.Second)
				closeFleet()
			},
		}, nil
	},
}

// clusterLayers reports the fabric's cost per statement class: the staged
// critical path, and what the coordinator's end-to-end time adds to it.
func clusterLayers(in layerInput, out map[string]float64) {
	brokerLayers(in, out)
	o := in.obs
	e2e := map[string]float64{}
	for _, s := range clusterStatements() {
		e2e[s.name] = median(o.get("cluster.e2e_ms." + s.name))
		crit := median(o.get("cluster.crit_ms." + s.name))
		out["cluster.critical_path_ms."+s.name] = crit
		out["cluster.fabric_overhead_ms."+s.name] = e2e[s.name] - crit
	}
	if e2e["colocated"] > 0 {
		out["cluster.shuffle_over_colocated"] = e2e["shuffle"] / e2e["colocated"]
	}
	out["cluster.gathered_rows_per_op"] = mean(o.get("cluster.gathered"))
	out["cluster.fragment_retries"] = in.delta["cluster.retries"]
}
