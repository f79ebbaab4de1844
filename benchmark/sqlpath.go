package main

import (
	"context"
	"encoding/json"
	"time"

	"partitionjoin/internal/plan"
	"partitionjoin/internal/sql"
	"partitionjoin/internal/tpch"
)

// catalogOf wraps a generated (or store-opened) database as the SQL catalog.
func catalogOf(db *tpch.DB) sql.Catalog {
	cat := sql.Catalog{}
	for _, t := range db.Tables() {
		cat[t.Name] = t
	}
	return cat
}

// stmt is one SQL statement of a workload's mix.
type stmt struct {
	name string
	sql  string
	// stream sends the statement through QueryStream (NDJSON rows).
	stream bool
	want   digest
}

// reference fills in each statement's reference digest: BHJ, RAM-resident,
// one process, straight through sql.Run.
func reference(cat sql.Catalog, procs int, stmts []stmt) error {
	for i := range stmts {
		res, err := sql.Run(cat, stmts[i].sql, engineOpts(procs, plan.BHJ))
		if err != nil {
			return err
		}
		stmts[i].want = digestResult(res.Result)
	}
	return nil
}

// runSQL is sql.Run untraced; traced, it walks the same stages one public
// call at a time — Parse, Plan, PrepareErr, ExecuteErr — with a span around
// each.
func runSQL(rec *opRec, group string, cat sql.Catalog, query string, opts plan.Options) (*plan.ExecResult, error) {
	if rec == nil {
		return sql.Run(cat, query, opts)
	}
	t0 := time.Now()
	ast, err := sql.Parse(query)
	t1 := time.Now()
	rec.span("sql", "sql.Parse", t0, t1)
	if err != nil {
		return nil, err
	}
	root, err := sql.Plan(cat, ast)
	rec.span("sql", "sql.Plan", t1, time.Now())
	if err != nil {
		return nil, err
	}
	return execPlan(context.Background(), rec, group, opts, root)
}

// stagedSQL replays a statement the way the server handles a cache miss —
// Normalize, then the runSQL stages, then encoding the rows — as one
// operation whose root span is marked staged. The encode stage is the
// benchmark's own: the server's encoders are not public, so each row is
// marshalled as the same JSON array the wire carries.
func stagedSQL(tr *tracer, obs *observations, s stmt, cat sql.Catalog, opts plan.Options) error {
	rec, done := stagedOp(tr, obs, "staged/"+s.name)
	defer done()

	start := time.Now()
	_, err := sql.Normalize(s.sql)
	t1 := time.Now()
	rec.span("sql", "sql.Normalize", start, t1)
	obs.add("staged.normalize_ms."+s.name, ms(t1.Sub(start)))
	if err != nil {
		return err
	}
	res, err := runSQL(rec, s.name, cat, s.sql, opts)
	if err != nil {
		return err
	}
	t2 := time.Now()
	row := make([]any, len(res.Result.Vecs))
	for i, n := 0, res.Result.NumRows(); i < n; i++ {
		for c := range res.Result.Vecs {
			switch v := &res.Result.Vecs[c]; s.want.Kinds[c] {
			case 'f':
				row[c] = v.F64[i]
			case 's':
				row[c] = string(v.Str[i])
			default:
				row[c] = v.I64[i]
			}
		}
		if _, err := json.Marshal(row); err != nil {
			return err
		}
	}
	t3 := time.Now()
	rec.span("server", "server.encode", t2, t3)
	obs.add("staged.encode_ms."+s.name, ms(t3.Sub(t2)))
	return nil
}
