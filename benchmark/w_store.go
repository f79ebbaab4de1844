package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"partitionjoin/internal/plan"
	"partitionjoin/internal/sql"
	"partitionjoin/internal/storage"
	"partitionjoin/internal/tpch"
)

// storeMix is one cycle as indices into the store statements (the four
// tpch.ServeQueries: join count, Q6-style scan, Q1-style group-by, orders
// roll-up). The Q1-style group-by appears twice so that the median of the
// latency mixture lies inside one statement's mass.
var storeMix = []int{1, 2, 3, 0, 2}

// storeColdscan scans a column store through a buffer pool smaller than the
// lineitem columns its statements touch.
var storeColdscan = workload{
	name:    "store_coldscan",
	why:     "TPC-H in a column store behind a buffer pool smaller than the lineitem columns scanned, interleaved with an orders roll-up that fits: colstore pin, CRC verify and CLOCK eviction do the work",
	clients: 1,
	setup: func(e env) (*instance, error) {
		db := tpch.Generate(e.sz.StoreSF, e.seed)
		ram := catalogOf(db)
		names := []string{"join_count", "q6_scan", "q1_groupby", "orders_rollup"}
		var stmts []stmt
		for i, q := range tpch.ServeQueries() {
			stmts = append(stmts, stmt{name: names[i], sql: q})
		}
		if err := reference(ram, e.procs, stmts); err != nil {
			return nil, err
		}

		dir := filepath.Join(e.dir, "store")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := tpch.WriteStore(dir, db, e.seed); err != nil {
			return nil, err
		}
		writeTime := time.Since(t0)
		diskBytes, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		lineitemBytes, err := dirBytes(filepath.Join(dir, db.Lineitem.Name))
		if err != nil {
			return nil, err
		}
		budget := int64(float64(lineitemBytes) * e.sz.StorePoolFrac)
		t1 := time.Now()
		sdb, st, err := tpch.OpenStore(dir, e.sz.StoreSF, e.seed, budget)
		if err != nil {
			return nil, err
		}
		openTime := time.Since(t1)
		cat := catalogOf(sdb)

		mkOp := func(s stmt) op {
			return op{class: s.name, want: s.want, run: func(rec *opRec) (digest, error) {
				start := time.Now()
				res, err := runSQL(rec, s.name, cat, s.sql, engineOpts(e.procs, plan.BHJ))
				if err != nil {
					return digest{}, err
				}
				if rec != nil {
					rec.obs.add("store_ms."+s.name, ms(time.Since(start)))
				}
				return digestTraced(rec, res.Result), nil
			}}
		}
		var cycle, warm []op
		for _, i := range storeMix {
			cycle = append(cycle, mkOp(stmts[i]))
		}
		for _, s := range stmts {
			warm = append(warm, mkOp(s))
		}
		inst := &instance{
			clients: [][]op{repeatOps(cycle, e.sz.StoreCycles)},
			warm:    warm,
			mark: func() counters {
				ps := st.Pool().Stats()
				return counters{
					"pool.pins": float64(ps.Pins), "pool.hits": float64(ps.Hits),
					"pool.misses": float64(ps.Misses), "pool.evictions": float64(ps.Evictions),
				}
			},
			layers: func(in layerInput, out map[string]float64) {
				d := in.delta
				if d["pool.pins"] > 0 {
					out["colstore.pool.hit_rate"] = d["pool.hits"] / d["pool.pins"]
				}
				if in.ops > 0 {
					out["colstore.pool.misses_per_op"] = d["pool.misses"] / float64(in.ops)
					out["colstore.pool.evictions_per_op"] = d["pool.evictions"] / float64(in.ops)
				}
				out["colstore.pool.max_resident_over_budget"] = float64(st.Pool().Stats().MaxResidentBytes) / float64(budget)
				out["colstore.write_s"] = writeTime.Seconds()
				out["colstore.open_ms"] = ms(openTime)
				var onStore, inRAM float64
				for _, s := range stmts {
					onStore += median(in.obs.get("store_ms." + s.name))
					inRAM += median(in.obs.get("ram_ms." + s.name))
				}
				if inRAM > 0 {
					out["colstore.ram_slowdown"] = onStore / inRAM
				}
				if ub := mean(in.obs.get("store.user_bytes")); ub > 0 {
					out["colstore.disk_bytes_per_user_byte"] = float64(diskBytes) / ub
				}
			},
			close: func() {
				st.Close()
				os.RemoveAll(dir)
			},
		}
		if e.traced {
			// The RAM tables stay alive only for the traced run's baseline:
			// each statement on RAM-resident data, for ram_slowdown.
			inst.staged = func(tr *tracer, obs *observations) error {
				obs.add("store.user_bytes", float64(userBytes(db)))
				return ramBaseline(tr, obs, ram, stmts, e.procs)
			}
		}
		return inst, nil
	},
}

// ramBaseline times every statement on RAM-resident tables, as staged ops.
func ramBaseline(tr *tracer, obs *observations, ram sql.Catalog, stmts []stmt, procs int) error {
	for _, s := range stmts {
		for r := 0; r < stagedReps; r++ {
			_, done := stagedOp(tr, obs, "staged/ram/"+s.name)
			start := time.Now()
			_, err := sql.Run(ram, s.sql, engineOpts(procs, plan.BHJ))
			obs.add("ram_ms."+s.name, ms(time.Since(start)))
			done()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// userBytes is the size of the database's values themselves: 8 bytes per
// integer, date or float, 4 per int32, and each string's own length.
func userBytes(db *tpch.DB) int64 {
	var total int64
	for _, t := range db.Tables() {
		for _, c := range t.Cols {
			switch col := c.(type) {
			case *storage.Int32Column:
				total += 4 * int64(col.Len())
			case storage.StrCol:
				for i, n := 0, col.Len(); i < n; i++ {
					total += int64(len(col.Value(i)))
				}
			default:
				total += 8 * int64(c.Len())
			}
		}
	}
	return total
}
