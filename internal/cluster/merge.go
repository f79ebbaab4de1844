package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"partitionjoin/internal/sql"
	"partitionjoin/internal/storage"
)

// mergeKind says how one output column combines across fragments.
type mergeKind int

const (
	mergeKey   mergeKind = iota // grouping key / plain column: values must agree
	mergeCount                  // add
	mergeSum                    // add (int or float by wire type)
	mergeMin                    // keep the smaller
	mergeMax                    // keep the larger
	mergeAvg                    // fragments carry sums; divide by the merged count
)

// errNotMergeable marks a statement whose fragments cannot be combined by
// the coordinator (e.g. ORDER BY a column absent from the output). The
// query falls back to the gather path, which executes it whole.
var errNotMergeable = errors.New("cluster: statement not mergeable from fragments")

// mergePlan is the compiled recipe for combining fragment results.
type mergePlan struct {
	fragSQL string
	hasAgg  bool
	grouped bool
	kinds   []mergeKind // one per output column
	keyIdx  []int       // output columns that identify a group
	cntIdx  int         // fragment index of __cluster_cnt; -1 when absent
	order   []orderKey
	limit   int
}

// orderKey is one resolved ORDER BY term.
type orderKey struct {
	idx  int
	desc bool
}

// buildMerge compiles the statement into its fragment SQL and merge recipe.
func buildMerge(stmt *sql.SelectStmt) (*mergePlan, error) {
	mp := &mergePlan{cntIdx: -1, limit: stmt.Limit}
	mp.grouped = len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if it.Agg != "" {
			mp.hasAgg = true
		}
	}
	if mp.hasAgg || mp.grouped {
		if mp.hasAgg && !mp.grouped {
			for _, it := range stmt.Items {
				if it.Agg == "" {
					return nil, errNotMergeable // bare column in a global aggregate
				}
			}
		}
		for i, it := range stmt.Items {
			switch it.Agg {
			case "":
				mp.kinds = append(mp.kinds, mergeKey)
				mp.keyIdx = append(mp.keyIdx, i)
			case "count":
				mp.kinds = append(mp.kinds, mergeCount)
			case "sum":
				mp.kinds = append(mp.kinds, mergeSum)
			case "min":
				mp.kinds = append(mp.kinds, mergeMin)
			case "max":
				mp.kinds = append(mp.kinds, mergeMax)
			case "avg":
				mp.kinds = append(mp.kinds, mergeAvg)
			default:
				return nil, errNotMergeable
			}
		}
		// Fragments do the grouping but never order or limit — a per-shard
		// LIMIT would drop groups the merge still needs.
		mp.fragSQL = printStmt(stmt, fragOpts{
			stripLimit: true, stripOrder: true,
			avgToSum: true, forceCnt: mp.hasAgg,
		})
		if mp.hasAgg {
			mp.cntIdx = len(stmt.Items)
		}
	} else {
		// Plain select: rows concatenate. The fragment keeps ORDER BY and
		// LIMIT — each shard's top-k is a superset of its contribution to
		// the global top-k — and the coordinator re-sorts and re-cuts.
		for range stmt.Items {
			mp.kinds = append(mp.kinds, mergeKey)
		}
		mp.fragSQL = printStmt(stmt, fragOpts{})
	}
	for _, oi := range stmt.OrderBy {
		idx := findOutCol(stmt, oi.Col)
		if idx < 0 {
			return nil, errNotMergeable // ordered by a column we don't see
		}
		mp.order = append(mp.order, orderKey{idx: idx, desc: oi.Desc})
	}
	return mp, nil
}

// findOutCol locates an ORDER BY reference among the SELECT items: by alias,
// or by (qualified) column identity.
func findOutCol(stmt *sql.SelectStmt, c sql.ColRefAST) int {
	for i, it := range stmt.Items {
		if c.Qualifier == "" && it.As != "" && it.As == c.Column {
			return i
		}
		if it.Agg == "" && !it.Star && it.Col.Column == c.Column &&
			(c.Qualifier == "" || c.Qualifier == it.Col.Qualifier) {
			return i
		}
	}
	return -1
}

// merge combines the fragment results into the final rows.
func (mp *mergePlan) merge(frags []*fragResult) (*Result, error) {
	if len(frags) == 0 {
		return nil, errors.New("cluster: no fragments to merge")
	}
	n := len(mp.kinds)
	base := frags[0]
	if len(base.cols) < n {
		return nil, fmt.Errorf("cluster: fragment returned %d columns, want >= %d", len(base.cols), n)
	}
	cols := append([]ColMeta(nil), base.cols[:n]...)
	for i := range cols {
		if mp.kinds[i] == mergeAvg {
			// Fragments ship sums (possibly integer); the quotient is float.
			cols[i].Type = storage.Float64.String()
		}
	}

	var rows [][]any
	if !mp.hasAgg && !mp.grouped {
		for _, fr := range frags {
			rows = append(rows, fr.rows...)
		}
	} else {
		var err error
		rows, err = mp.mergeGroups(frags, base)
		if err != nil {
			return nil, err
		}
	}

	if len(mp.order) > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			for _, ok := range mp.order {
				va, vb := rows[a][ok.idx], rows[b][ok.idx]
				if valEq(va, vb) {
					continue
				}
				less := valLess(va, vb)
				if ok.desc {
					return !less
				}
				return less
			}
			return false
		})
	}
	if mp.limit > 0 && len(rows) > mp.limit {
		rows = rows[:mp.limit]
	}
	return &Result{Cols: cols, Rows: rows}, nil
}

// groupAcc accumulates one group across fragments.
type groupAcc struct {
	row []any
	cnt int64
}

// mergeGroups folds every fragment row into its group accumulator and
// finalizes avg columns.
func (mp *mergePlan) mergeGroups(frags []*fragResult, base *fragResult) ([][]any, error) {
	n := len(mp.kinds)
	accs := make(map[string]*groupAcc)
	var order []string
	for _, fr := range frags {
		for _, row := range fr.rows {
			var cnt int64
			if mp.cntIdx >= 0 {
				c, ok := row[mp.cntIdx].(int64)
				if !ok {
					return nil, fmt.Errorf("cluster: bad %s value %v", avgCntAlias, row[mp.cntIdx])
				}
				if c == 0 {
					// A global aggregate's default row from a shard whose
					// partition matched nothing: its sentinels carry no data.
					continue
				}
				cnt = c
			}
			key := groupKeyOf(row, mp.keyIdx)
			a := accs[key]
			if a == nil {
				accs[key] = &groupAcc{row: append([]any(nil), row[:n]...), cnt: cnt}
				order = append(order, key)
				continue
			}
			a.cnt += cnt
			for i, k := range mp.kinds {
				switch k {
				case mergeCount, mergeSum, mergeAvg:
					a.row[i] = valAdd(a.row[i], row[i])
				case mergeMin:
					if valLess(row[i], a.row[i]) {
						a.row[i] = row[i]
					}
				case mergeMax:
					if valLess(a.row[i], row[i]) {
						a.row[i] = row[i]
					}
				}
			}
		}
	}
	if len(accs) == 0 && mp.hasAgg && !mp.grouped && len(base.rows) > 0 {
		// Every shard matched nothing; the merged answer is the same default
		// row a single node yields on empty input.
		accs[""] = &groupAcc{row: append([]any(nil), base.rows[0][:n]...)}
		order = append(order, "")
	}
	rows := make([][]any, 0, len(accs))
	for _, key := range order {
		a := accs[key]
		for i, k := range mp.kinds {
			if k == mergeAvg {
				if a.cnt == 0 {
					a.row[i] = float64(0)
				} else {
					a.row[i] = valFloat(a.row[i]) / float64(a.cnt)
				}
			}
		}
		rows = append(rows, a.row)
	}
	return rows, nil
}

// groupKeyOf builds the map key of a row's grouping-column values.
func groupKeyOf(row []any, keyIdx []int) string {
	if len(keyIdx) == 0 {
		return ""
	}
	var b strings.Builder
	for _, i := range keyIdx {
		fmt.Fprintf(&b, "%v\x00", row[i])
	}
	return b.String()
}

// valAdd sums two wire values of the same column.
func valAdd(a, b any) any {
	switch x := a.(type) {
	case int64:
		return x + b.(int64)
	case float64:
		return x + b.(float64)
	}
	return a
}

// valLess orders two wire values of the same column.
func valLess(a, b any) bool {
	switch x := a.(type) {
	case int64:
		return x < b.(int64)
	case float64:
		return x < b.(float64)
	case string:
		return x < b.(string)
	}
	return false
}

// valEq compares two wire values of the same column.
func valEq(a, b any) bool { return a == b }

// valFloat widens a wire value to float64 for the avg quotient.
func valFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}
