package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"partitionjoin/internal/plan"
	"partitionjoin/internal/server"
	"partitionjoin/internal/sql"
	"partitionjoin/internal/storage"
	"partitionjoin/internal/tpch"
)

// testCat is the shared TPC-H corpus (sf 0.01: 60k lineitem, 15k orders).
var testCat = sync.OnceValue(func() sql.Catalog { return tpch.ServeCatalog(0.01) })

// clusterHarness is a full local cluster: N shard servers, each holding its
// partition of the TPC-H catalog, and a coordinator over them. Every test
// drains everything and checks for leaked goroutines.
type clusterHarness struct {
	coord *Coordinator
	spec  Spec
	srvs  []*server.Server
	ts    []*httptest.Server
}

// newCluster boots the harness. mut, when non-nil, adjusts the coordinator
// config before New (the default disables the prober and uses fast retries).
func newCluster(t *testing.T, nShards int, mut func(*Config)) *clusterHarness {
	t.Helper()
	baseline := runtime.NumGoroutine()
	cat := testCat()
	spec, err := TPCHSpec(cat)
	if err != nil {
		t.Fatalf("TPCHSpec: %v", err)
	}
	ring := NewRing(nShards, 0)
	h := &clusterHarness{spec: spec}
	addrs := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		scat := PartitionCatalog(cat, spec, ring, i)
		srv := server.New(server.Config{Workers: 1}, scat)
		ts := httptest.NewServer(srv)
		h.srvs = append(h.srvs, srv)
		h.ts = append(h.ts, ts)
		addrs[i] = ts.URL
	}
	cfg := Config{
		Shards: addrs, Spec: spec,
		ProbeInterval:   -1, // tests drive health directly unless overridden
		FragmentTimeout: 10 * time.Second,
		MaxRetries:      3,
		RetryBase:       time.Millisecond,
		RetryCap:        20 * time.Millisecond,
		BreakerCooloff:  100 * time.Millisecond,
		Workers:         1,
	}
	if mut != nil {
		mut(&cfg)
	}
	h.coord, err = New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() {
		h.coord.Drain(10 * time.Second)
		for _, ts := range h.ts {
			ts.Close()
		}
		for _, srv := range h.srvs {
			srv.Drain(10 * time.Second)
		}
		waitGoroutines(t, baseline)
	})
	return h
}

// killShard stops shard i's server without telling the coordinator.
func (h *clusterHarness) killShard(i int) {
	h.ts[i].CloseClientConnections()
	h.ts[i].Close()
	h.srvs[i].Drain(5 * time.Second)
}

// restartShard boots a fresh server for shard i's partition on a new port
// and repoints the coordinator at it.
func (h *clusterHarness) restartShard(t *testing.T, i int) {
	t.Helper()
	cat := testCat()
	ring := NewRing(len(h.ts), 0)
	srv := server.New(server.Config{Workers: 1}, PartitionCatalog(cat, h.spec, ring, i))
	ts := httptest.NewServer(srv)
	h.srvs[i], h.ts[i] = srv, ts
	if err := h.coord.SetShardAddr(i, ts.URL); err != nil {
		t.Fatalf("SetShardAddr: %v", err)
	}
}

// waitGoroutines polls until the goroutine count returns to the baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// singleNode runs the query on the undivided catalog — the reference result.
func singleNode(t *testing.T, query string) *Result {
	t.Helper()
	res, err := sql.Run(testCat(), query, plan.Options{Workers: 1})
	if err != nil {
		t.Fatalf("single-node %q: %v", query, err)
	}
	return execToResult(res)
}

// sortRows orders a row set canonically for comparison.
func sortRows(rows [][]any) {
	sort.Slice(rows, func(a, b int) bool {
		return fmt.Sprint(rows[a]) < fmt.Sprint(rows[b])
	})
}

// rowsMatch compares two row sets value-by-value with float tolerance (the
// merged partial sums add in a different order than a single node's).
func rowsMatch(t *testing.T, got, want [][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d width: got %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			wf, wok := want[i][j].(float64)
			gf, gok := got[i][j].(float64)
			if wok && gok {
				if diff := math.Abs(wf - gf); diff > 1e-6*math.Max(1, math.Abs(wf)) {
					t.Fatalf("row %d col %d: got %v, want %v", i, j, gf, wf)
				}
				continue
			}
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d col %d: got %#v, want %#v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestRingDeterministicAndBalanced: independently built rings agree on every
// placement (that is what lets shards partition without coordination), and
// no shard owns a wildly outsized key share.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := NewRing(4, 0), NewRing(4, 0)
	counts := make([]int, 4)
	for k := int64(0); k < 20000; k++ {
		oa, ob := a.OwnerKey(k), b.OwnerKey(k)
		if oa != ob {
			t.Fatalf("rings disagree on key %d: %d vs %d", k, oa, ob)
		}
		counts[oa]++
	}
	for s, n := range counts {
		if n < 2500 || n > 8000 {
			t.Fatalf("shard %d owns %d of 20000 keys — ring badly imbalanced %v", s, n, counts)
		}
	}
}

// TestRingRebalance: adding and removing shards bumps the version and only
// reroutes a bounded share of the key space.
func TestRingRebalance(t *testing.T) {
	r := NewRing(3, 0)
	before := make(map[int64]int)
	for k := int64(0); k < 5000; k++ {
		before[k] = r.OwnerKey(k)
	}
	v := r.Version()
	r.Add(3)
	if r.Version() != v+1 {
		t.Fatalf("Add did not bump version")
	}
	moved := 0
	for k := int64(0); k < 5000; k++ {
		if r.OwnerKey(k) != before[k] {
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of keys to the new shard, not ~3/4.
	if moved == 0 || moved > 2500 {
		t.Fatalf("rebalance moved %d of 5000 keys", moved)
	}
	r.Remove(3)
	for k := int64(0); k < 5000; k++ {
		if r.OwnerKey(k) != before[k] {
			t.Fatalf("remove did not restore key %d", k)
		}
	}
	if got := r.Shards(); len(got) != 3 {
		t.Fatalf("shards after remove: %v", got)
	}
}

// TestRangeRouter: bounds routing, clamping, and range pruning.
func TestRangeRouter(t *testing.T) {
	rr := NewRangeRouter([]int64{100, 200, 300})
	cases := map[int64]int{50: 0, 100: 0, 101: 1, 200: 1, 250: 2, 300: 2, 999: 2}
	for k, want := range cases {
		if got := rr.Owner(k); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", k, got, want)
		}
	}
	if got := rr.Owners(120, 260); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Owners(120,260) = %v", got)
	}
	if got := rr.Owners(50, 999); len(got) != 3 {
		t.Fatalf("Owners(50,999) = %v", got)
	}
}

// TestPartitionCoversEveryRowOnce: the shard partitions of a table are
// disjoint and their union is the table.
func TestPartitionCoversEveryRowOnce(t *testing.T) {
	cat := testCat()
	spec, err := TPCHSpec(cat)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(4, 0)
	for _, name := range []string{"lineitem", "orders", "customer"} {
		src := cat[name]
		total := 0
		keys := map[int64]int{}
		keyCol := spec[name].Key
		for s := 0; s < 4; s++ {
			part := PartitionTable(src, spec[name], ring, s)
			total += part.NumRows()
			for _, k := range part.Int64Col(keyCol) {
				if owner, seen := keys[k]; seen && owner != s {
					t.Fatalf("%s key %d on both shard %d and %d", name, k, owner, s)
				}
				keys[k] = s
			}
		}
		if total != src.NumRows() {
			t.Fatalf("%s: partitions hold %d rows, table has %d", name, total, src.NumRows())
		}
	}
	// Replicated tables are shared whole.
	if got := PartitionTable(cat["nation"], spec["nation"], ring, 2); got != cat["nation"] {
		t.Fatal("replicated table was copied, not shared")
	}
}

// TestPrintStmtRoundTrip: regenerated SQL re-parses to the same regenerated
// SQL — the fragment fabric depends on it.
func TestPrintStmtRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT count(*) AS n FROM lineitem`,
		`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 5 LIMIT 10`,
		`SELECT l_returnflag, sum(l_quantity) AS q, avg(l_extendedprice) AS a FROM lineitem GROUP BY l_returnflag ORDER BY q DESC LIMIT 2`,
		`SELECT count(*) AS n FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND o.o_orderstatus = 'F'`,
		`SELECT o_orderpriority, count(*) AS n FROM orders WHERE o_orderpriority LIKE '1%' GROUP BY o_orderpriority`,
		`SELECT count(*) AS n FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL') AND l_quantity BETWEEN 10 AND 20`,
	}
	for _, q := range queries {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		printed := printStmt(stmt, fragOpts{})
		stmt2, err := sql.Parse(printed)
		if err != nil {
			t.Fatalf("re-parse %q: %v", printed, err)
		}
		if again := printStmt(stmt2, fragOpts{}); again != printed {
			t.Fatalf("round trip diverged:\n  first:  %s\n  second: %s", printed, again)
		}
	}
}

// differentialQueries cover every distributed mode and merge shape.
var differentialQueries = []struct {
	name, query string
	mode        Mode
}{
	{"global_count", `SELECT count(*) AS n FROM lineitem`, ModeColocated},
	{"filtered_sums", `SELECT sum(l_extendedprice) AS rev, count(*) AS n FROM lineitem WHERE l_quantity < 24`, ModeColocated},
	{"min_max_avg", `SELECT min(l_quantity) AS mn, max(l_quantity) AS mx, avg(l_extendedprice) AS av FROM lineitem`, ModeColocated},
	{"grouped_avg", `SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS qty, avg(l_quantity) AS aq FROM lineitem GROUP BY l_returnflag`, ModeColocated},
	{"colocated_join", `SELECT count(*) AS n FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey`, ModeColocated},
	{"broadcast_join", `SELECT count(*) AS n FROM lineitem l, part p WHERE l.l_partkey = p.p_partkey`, ModeColocated},
	{"shuffle_join", `SELECT o_orderpriority, count(*) AS n FROM orders o, customer c WHERE o.o_custkey = c.c_custkey GROUP BY o_orderpriority`, ModeGather},
	{"replicated_only", `SELECT n_name, count(*) AS n FROM supplier s, nation n WHERE s.s_nationkey = n.n_nationkey GROUP BY n_name`, ModeReplicated},
	{"routed_point", `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 777`, ModeRouted},
	{"order_by_alias", `SELECT l_returnflag, sum(l_quantity) AS q FROM lineitem GROUP BY l_returnflag ORDER BY q DESC LIMIT 2`, ModeColocated},
	{"plain_topk", `SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 50000 ORDER BY o_orderkey LIMIT 50`, ModeColocated},
	{"empty_global_agg", `SELECT count(*) AS n, min(l_shipmode) AS m, max(l_quantity) AS mx FROM lineitem WHERE l_orderkey = -5`, ModeRouted},
	{"empty_grouped", `SELECT l_returnflag, count(*) AS n FROM lineitem WHERE l_quantity < 0 GROUP BY l_returnflag`, ModeColocated},
	{"three_way_colocated", `SELECT count(*) AS n FROM lineitem l, orders o, part p WHERE l.l_orderkey = o.o_orderkey AND l.l_partkey = p.p_partkey`, ModeColocated},
	{"shuffle_select", `SELECT c_name, o_totalprice FROM orders o, customer c WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 400000`, ModeGather},
}

// TestDistributedMatchesSingleNode is the core differential: every query, on
// a 4-shard cluster, must produce exactly the rows the undivided catalog
// produces — and through the planned mode.
func TestDistributedMatchesSingleNode(t *testing.T) {
	h := newCluster(t, 4, nil)
	for _, tc := range differentialQueries {
		t.Run(tc.name, func(t *testing.T) {
			res, err := h.coord.Query(context.Background(), tc.query, "")
			if err != nil {
				t.Fatalf("cluster query: %v", err)
			}
			if res.Stats.Mode != tc.mode {
				t.Errorf("mode = %s, want %s", res.Stats.Mode, tc.mode)
			}
			want := singleNode(t, tc.query)
			got := res.Rows
			sortRows(got)
			sortRows(want.Rows)
			rowsMatch(t, got, want.Rows)
		})
	}
}

// TestDistributedOnOneShard: a single-shard "cluster" must also agree — the
// degenerate ring places everything on shard 0.
func TestDistributedOnOneShard(t *testing.T) {
	h := newCluster(t, 1, nil)
	for _, tc := range differentialQueries[:6] {
		res, err := h.coord.Query(context.Background(), tc.query, "")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := singleNode(t, tc.query)
		sortRows(res.Rows)
		sortRows(want.Rows)
		rowsMatch(t, res.Rows, want.Rows)
	}
}

// TestRoutedQueryTouchesOneShard: a partition-key point query must dispatch
// exactly one fragment.
func TestRoutedQueryTouchesOneShard(t *testing.T) {
	h := newCluster(t, 4, nil)
	res, err := h.coord.Query(context.Background(),
		`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 1234`, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mode != ModeRouted || res.Stats.Shards != 1 || res.Stats.Fragments != 1 {
		t.Fatalf("stats = %+v, want routed single-shard single-fragment", res.Stats)
	}
	want := singleNode(t, `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 1234`)
	sortRows(res.Rows)
	sortRows(want.Rows)
	rowsMatch(t, res.Rows, want.Rows)
}

// TestBadStatementIs400: statement errors come back as 400s through the
// HTTP front, not as internal errors.
func TestBadStatementIs400(t *testing.T) {
	h := newCluster(t, 2, nil)
	ts := httptest.NewServer(h.coord)
	defer ts.Close()
	cl := &server.Client{Base: ts.URL}
	for _, q := range []string{"SELEC nonsense", "SELECT count(*) AS n FROM nosuch"} {
		_, err := cl.Query(context.Background(), q)
		var re *server.RemoteError
		if !errors.As(err, &re) || re.Status != 400 {
			t.Fatalf("query %q: err = %v, want HTTP 400", q, err)
		}
	}
}

// TestWireCompatibleWithServerClient: the coordinator speaks the server's
// dialect — the stock client runs plain and streamed queries against it —
// and both surfaces answer with the same JSON shapes on the wire: the
// document, the stream header and trailer, a 400 naming the query, and a
// draining 503 with its backoff hint.
func TestWireCompatibleWithServerClient(t *testing.T) {
	surfaces := []struct {
		name string
		boot func(t *testing.T) (http.Handler, func(time.Duration) bool)
	}{
		{"server", func(t *testing.T) (http.Handler, func(time.Duration) bool) {
			srv := server.New(server.Config{Workers: 1}, testCat())
			t.Cleanup(func() { srv.Drain(10 * time.Second) })
			return srv, srv.Drain
		}},
		{"coordinator", func(t *testing.T) (http.Handler, func(time.Duration) bool) {
			h := newCluster(t, 3, nil)
			return h.coord, h.coord.Drain
		}},
	}
	for _, sf := range surfaces {
		t.Run(sf.name, func(t *testing.T) {
			handler, drain := sf.boot(t)
			ts := httptest.NewServer(handler)
			defer ts.Close()
			cl := &server.Client{Base: ts.URL}

			qr, err := cl.Query(context.Background(), `SELECT count(*) AS n FROM lineitem`)
			if err != nil {
				t.Fatalf("client query: %v", err)
			}
			want := singleNode(t, `SELECT count(*) AS n FROM lineitem`)
			if len(qr.Rows) != 1 || fmt.Sprint(qr.Rows[0][0]) != fmt.Sprint(want.Rows[0][0]) {
				t.Fatalf("rows = %v, want %v", qr.Rows, want.Rows)
			}
			if qr.QueryID == "" {
				t.Fatal("no query id")
			}

			var streamed int
			tr, err := cl.QueryStream(context.Background(),
				`SELECT l_orderkey FROM lineitem WHERE l_quantity < 3`,
				func(row []any) error { streamed++; return nil })
			if err != nil {
				t.Fatalf("client stream: %v", err)
			}
			if tr.RowCount != streamed {
				t.Fatalf("trailer row_count %d, streamed %d", tr.RowCount, streamed)
			}
			if err := cl.Healthz(context.Background()); err != nil {
				t.Fatalf("healthz: %v", err)
			}

			resp, lines := postRaw(t, ts.URL, `{"sql":"SELECT count(*) AS n FROM nation"}`)
			wantKeys(t, "document", resp, http.StatusOK, lines[0], "cols query_id row_count rows stats")
			resp, lines = postRaw(t, ts.URL, `{"sql":"SELECT n_name FROM nation","stream":true}`)
			wantKeys(t, "stream header", resp, http.StatusOK, lines[0], "cols query_id")
			wantKeys(t, "stream trailer", resp, http.StatusOK, lines[len(lines)-1], "query_id row_count stats")
			resp, lines = postRaw(t, ts.URL, `{"sql":"SELEC nonsense"}`)
			wantKeys(t, "bad sql", resp, http.StatusBadRequest, lines[0], "error query_id")

			drain(time.Second)
			resp, lines = postRaw(t, ts.URL, `{"sql":"SELECT count(*) AS n FROM nation"}`)
			wantKeys(t, "draining", resp, http.StatusServiceUnavailable, lines[0], "error query_id retry_after_ms")
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
				t.Fatalf("draining Retry-After = %q, want >= 1", resp.Header.Get("Retry-After"))
			}
		})
	}
}

// postRaw posts a /query body and returns the response with its body split
// into non-empty lines.
func postRaw(t *testing.T, base, body string) (*http.Response, [][]byte) {
	t.Helper()
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", body, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", body, err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	return resp, lines
}

// wantKeys checks a response's status and the top-level keys of one of its
// JSON lines.
func wantKeys(t *testing.T, what string, resp *http.Response, status int, line []byte, keys string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("%s: HTTP %d, want %d (%s)", what, resp.StatusCode, status, line)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatalf("%s: %v in %s", what, err, line)
	}
	got := make([]string, 0, len(obj))
	for k := range obj {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != keys {
		t.Fatalf("%s: keys %v, want %s", what, got, keys)
	}
}

// TestHTTPQueryIDsAreConsecutive: each un-tagged HTTP query takes exactly
// one coordinator id, so the round-robin over replicated-only queries
// reaches every shard.
func TestHTTPQueryIDsAreConsecutive(t *testing.T) {
	h := newCluster(t, 2, nil)
	ts := httptest.NewServer(h.coord)
	defer ts.Close()
	cl := &server.Client{Base: ts.URL}
	for i := 1; i <= 6; i++ {
		qr, err := cl.Query(context.Background(), `SELECT count(*) AS n FROM nation`)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("c%d", i); qr.QueryID != want {
			t.Fatalf("query %d: id %s, want %s", i, qr.QueryID, want)
		}
	}
	for _, sh := range h.coord.Statsz().Shards {
		if sh.Fragments != 3 {
			t.Fatalf("shard fragments = %+v, want 3 on each shard", h.coord.Statsz().Shards)
		}
	}
}

// TestCoordinatorStreamStopsWhenClientLeaves: a client that abandons an
// NDJSON stream after its first rows ends the handler, and the coordinator
// still drains clean.
func TestCoordinatorStreamStopsWhenClientLeaves(t *testing.T) {
	h := newCluster(t, 2, nil)
	handlerDone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.coord.ServeHTTP(w, r)
		close(handlerDone)
	}))
	defer ts.Close()
	cl := &server.Client{Base: ts.URL}
	errGone := errors.New("client gone")
	_, err := cl.QueryStream(context.Background(), `SELECT l_orderkey, l_comment FROM lineitem`,
		func([]any) error { return errGone })
	if !errors.Is(err, errGone) {
		t.Fatalf("stream err = %v, want the client's own error", err)
	}
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still streaming after the client left")
	}
	if !h.coord.Drain(time.Second) {
		t.Fatal("drain after an abandoned stream was not clean")
	}
}

// TestMergeSkipsEmptyShardSentinels: a unit check that the merge drops the
// default rows of shards whose partition matched nothing (their min/max
// sentinels must not leak into the answer).
func TestMergeSkipsEmptyShardSentinels(t *testing.T) {
	stmt, err := sql.Parse(`SELECT count(*) AS n, min(l_quantity) AS mn, max(l_quantity) AS mx, avg(l_quantity) AS av FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := buildMerge(stmt)
	if err != nil {
		t.Fatal(err)
	}
	cols := []ColMeta{{Name: "n", Type: "INT64"}, {Name: "mn", Type: "INT64"}, {Name: "mx", Type: "INT64"}, {Name: "av", Type: "INT64"}, {Name: avgCntAlias, Type: "INT64"}}
	frags := []*fragResult{
		{cols: cols, rows: [][]any{{int64(2), int64(5), int64(9), int64(14), int64(2)}}, tries: 1},
		// Empty shard: count 0, sentinel min/max.
		{cols: cols, rows: [][]any{{int64(0), int64(math.MaxInt64), int64(math.MinInt64), int64(0), int64(0)}}, tries: 1},
		{cols: cols, rows: [][]any{{int64(1), int64(7), int64(7), int64(7), int64(1)}}, tries: 1},
	}
	res, err := mp.merge(frags)
	if err != nil {
		t.Fatal(err)
	}
	wantRow := []any{int64(3), int64(5), int64(9), float64(7)}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	rowsMatch(t, res.Rows, [][]any{wantRow})
	if res.Cols[3].Type != storage.Float64.String() {
		t.Fatalf("avg column type = %s, want FLOAT64", res.Cols[3].Type)
	}
}
