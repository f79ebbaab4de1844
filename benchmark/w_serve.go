package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/server"
	"partitionjoin/internal/tpch"
)

// orderDateSpan is the number of days TPC-H order dates are spread over.
const orderDateSpan = 2406

// serveStatements is the serve mix: the four tpch.ServeQueries, a
// three-table join with group-by, and a wide projection of about wideRows
// rows that is streamed.
func serveStatements(db *tpch.DB, wideRows int) []stmt {
	q := tpch.ServeQueries()
	days := (wideRows*orderDateSpan + db.Orders.NumRows() - 1) / db.Orders.NumRows()
	lo := tpch.Date(1994, 1, 1)
	return []stmt{
		{name: "join_count", sql: q[0]},
		{name: "q6_scan", sql: q[1]},
		{name: "q1_groupby", sql: q[2]},
		{name: "orders_rollup", sql: q[3]},
		{name: "nation_join", sql: `SELECT n.n_name, count(*) AS n, sum(o.o_totalprice) AS total
			FROM orders o, customer c, nation n
			WHERE o.o_custkey = c.c_custkey AND c.c_nationkey = n.n_nationkey
			GROUP BY n.n_name ORDER BY n.n_name`},
		{name: "wide_stream", stream: true, sql: fmt.Sprintf(`SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderpriority, o_clerk
			FROM orders WHERE o_orderdate BETWEEN %d AND %d`, lo, lo+int64(days)-1)},
	}
}

// A serve schedule is cycles of indices into serveStatements, chosen so the
// percentiles of the latency mixture fall inside one statement's mass and
// not in a gap between two. Uncached, q1_groupby appears twice and holds
// the median. Cached, every hit on a narrow result costs about the same, so
// the median is the hit path itself; the wide stream is one op in sixteen,
// which puts the 95th percentile a fifth of the way into the wide replays.
var (
	serveUncachedMix = []int{0, 1, 2, 3, 4, 2, 5}
	serveCachedMix   = []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5}
)

// serveWorkload builds serve_uncached (result cache off) or serve_cached
// (on): the same server, statements and two closed-loop clients.
func serveWorkload(name, why string, cached bool) workload {
	return workload{
		name: name, why: why, clients: 2,
		setup: func(e env) (*instance, error) {
			db := tpch.Generate(e.sz.ServeSF, e.seed)
			cat := catalogOf(db)
			stmts := serveStatements(db, e.sz.ServeWideRows)
			if err := reference(cat, e.procs, stmts); err != nil {
				return nil, err
			}
			// The pool admits both clients at once: admission is on the
			// path but never the bottleneck here.
			broker := admit.NewBroker(admit.Config{GlobalMem: 1 << 30, MaxWait: time.Minute})
			srv := server.New(server.Config{Workers: e.procs, Algo: plan.BHJ, Broker: broker, NoResultCache: !cached}, cat)
			ts := httptest.NewServer(srv)
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
			staged := &stagedTimes{normalize: map[string]time.Duration{}, encode: map[string]time.Duration{}}

			mix, cycles := serveUncachedMix, e.sz.ServeUncachedCycles
			if cached {
				mix, cycles = serveCachedMix, e.sz.ServeCachedCycles
			}
			inst := &instance{
				mark: func() counters {
					st := srv.Stats()
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					c := counters{
						"admit.sheds": float64(broker.Sheds()), "mallocs": float64(m.Mallocs),
						"pc.hits": float64(st.PlanCache.Hits), "pc.misses": float64(st.PlanCache.Misses),
					}
					if st.ResultCache != nil {
						c["rc.hits"], c["rc.misses"] = float64(st.ResultCache.Hits), float64(st.ResultCache.Misses)
					}
					return c
				},
				sample: func(obs *observations) { obs.add("admit.queued", float64(broker.Queued())) },
				staged: func(tr *tracer, obs *observations) error {
					for _, s := range stmts {
						for r := 0; r < stagedReps; r++ {
							if err := stagedSQL(tr, obs, s, cat, engineOpts(e.procs, plan.BHJ)); err != nil {
								return err
							}
						}
						staged.normalize[s.name] = fromMS(median(obs.get("staged.normalize_ms." + s.name)))
						staged.encode[s.name] = fromMS(median(obs.get("staged.encode_ms." + s.name)))
					}
					return nil
				},
				layers: serveLayers,
				close: func() {
					hc.CloseIdleConnections()
					ts.Close()
					srv.Drain(10 * time.Second)
					broker.Close()
				},
			}
			for c := 0; c < 2; c++ {
				cl := &server.Client{Base: ts.URL, HTTP: hc}
				var cycle []op
				for i := range mix {
					// The second client starts half a cycle in, so the two
					// are not in lock-step on one statement.
					s := stmts[mix[(i+c*len(mix)/2)%len(mix)]]
					cycle = append(cycle, serveOp(cl, s, staged))
				}
				inst.clients = append(inst.clients, repeatOps(cycle, cycles))
				if c == 0 {
					for _, s := range stmts {
						inst.warm = append(inst.warm, serveOp(cl, s, staged))
					}
				}
			}
			return inst, nil
		},
	}
}

var serveUncached = serveWorkload("serve_uncached",
	"query server behind HTTP, result cache off, plan cache warm, 2 clients over six statements: the engine under concurrent load as a client sees it (normalize, plan cache, admit, execute, encode, HTTP)",
	false)

var serveCached = serveWorkload("serve_cached",
	"same server and statements with the result cache on (100% hits): normalize, cache lookup, replay and HTTP do all the work, the engine none; bypasses engine changes, exercises cache and HTTP changes",
	true)

// stagedReps is how often the traced run replays each statement stage by
// stage.
const stagedReps = 5

// stagedTimes holds the staged-replay medians the traced ops lay out as
// derived spans. It is written before the traced windows start and only
// read after.
type stagedTimes struct {
	normalize, encode map[string]time.Duration
}

// serveOp sends one statement through the Go client and digests the rows.
// The traced form records what the response says about the layers behind
// HTTP: reported admission wait and execution time become derived spans,
// together with the staged medians of the stages the server does not
// report, and whatever is left of the client-observed latency stays the
// root span's self time.
func serveOp(cl *server.Client, s stmt, staged *stagedTimes) op {
	return op{class: s.name, want: s.want, run: func(rec *opRec) (digest, error) {
		ctx := context.Background()
		start := time.Now()
		var d digest
		var execMS, waitMS float64
		var resultCache string
		if s.stream {
			g := newDigester(s.want.Kinds)
			tr, err := cl.QueryStream(ctx, s.sql, g.addRow)
			if err != nil {
				return digest{}, err
			}
			d = g.d
			execMS, waitMS = tr.Stats.DurationMS, tr.Stats.AdmitWaitMS
			resultCache = tr.Stats.ResultCache
		} else {
			qr, err := cl.Query(ctx, s.sql)
			if err != nil {
				return digest{}, err
			}
			if d, err = digestRows(s.want.Kinds, qr.Rows); err != nil {
				return digest{}, err
			}
			execMS, waitMS = qr.Stats.DurationMS, qr.Stats.AdmitWaitMS
			resultCache = qr.ResultCache
		}
		if rec == nil {
			return d, nil
		}
		lat := ms(time.Since(start))
		o := rec.obs
		o.add("admit.op_wait_ms", waitMS)
		o.add("server.exec_ms", execMS)
		over := lat - execMS - waitMS
		o.add("server.overhead_ms", over)
		if s.stream {
			o.add("server.wide_overhead_ms", over)
			o.add("server.wide_rows", float64(d.Rows))
		} else {
			o.add("server.narrow_overhead_ms", over)
		}
		hit := resultCache == "hit"
		// Derived children, laid end to end from the op's start: durations
		// are measured, positions are not.
		at := start
		derive := func(layer, name string, dur time.Duration) {
			rec.tr.add(rec.root, rec.op, layer, name, at, at.Add(dur), true)
			at = at.Add(dur)
		}
		derive("sql", "staged:sql.Normalize", staged.normalize[s.name])
		if !hit {
			derive("admit", "reported:admit.wait", fromMS(waitMS))
			derive("plan", "reported:plan.ExecuteErr", fromMS(execMS))
			derive("server", "staged:server.encode", staged.encode[s.name])
		}
		return d, nil
	}}
}

// serveLayers reports the server's own view of the traced windows.
func serveLayers(in layerInput, out map[string]float64) {
	brokerLayers(in, out)
	o, d := in.obs, in.delta
	if n := d["pc.hits"] + d["pc.misses"]; n > 0 {
		out["server.plan_cache.hit_rate"] = d["pc.hits"] / n
	}
	if n := d["rc.hits"] + d["rc.misses"]; n > 0 {
		out["server.result_cache.hit_rate"] = d["rc.hits"] / n
	}
	out["server.exec_ms_p50"] = median(o.get("server.exec_ms"))
	out["server.overhead_ms_p50"] = median(o.get("server.overhead_ms"))
	if rows := median(o.get("server.wide_rows")); rows > 0 {
		// What a wide streamed result costs per row beyond execution:
		// server encode, the wire, and the client's decode. The narrow
		// statements' overhead stands for the per-request part.
		extra := median(o.get("server.wide_overhead_ms")) - median(o.get("server.narrow_overhead_ms"))
		out["server.encode_us_per_row"] = extra * 1000 / rows
	}
	if in.ops > 0 {
		out["server.allocs_per_op"] = d["mallocs"] / float64(in.ops)
	}
}
