// Black-box tests of the query service: sessions, plan-cache behavior,
// streaming, typed error mapping, drain semantics, and — under -race — a
// concurrent-session soak exercising shedding, mid-stream disconnects, and
// watchdog kills against one shared broker.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/server"
	"partitionjoin/internal/sql"
	"partitionjoin/internal/storage"
	"partitionjoin/internal/tpch"
)

// testCatalog is the small two-table join corpus shared by most tests.
func testCatalog() sql.Catalog {
	bs := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.Int64},
		storage.ColumnDef{Name: "pay", Type: storage.Int64},
	)
	build := storage.NewTable("build", bs, 100)
	bk := build.Cols[0].(*storage.Int64Column)
	bp := build.Cols[1].(*storage.Int64Column)
	for i := 0; i < 100; i++ {
		bk.Values = append(bk.Values, int64(i))
		bp.Values = append(bp.Values, int64(i)*10)
	}
	ps := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.Int64},
		storage.ColumnDef{Name: "v", Type: storage.Int64},
	)
	probe := storage.NewTable("probe", ps, 1000)
	pk := probe.Cols[0].(*storage.Int64Column)
	pv := probe.Cols[1].(*storage.Int64Column)
	for i := 0; i < 1000; i++ {
		pk.Values = append(pk.Values, int64(i%100))
		pv.Values = append(pv.Values, int64(i))
	}
	return sql.Catalog{"build": build, "probe": probe}
}

// wideCatalog returns a table big enough that a streamed response overflows
// the kernel socket buffers, so the server measurably blocks on a client
// that stops reading.
func wideCatalog() sql.Catalog {
	s := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.Int64},
		storage.ColumnDef{Name: "pad", Type: storage.String, StrCap: 96},
	)
	t := storage.NewTable("wide", s, 1<<16)
	k := t.Cols[0].(*storage.Int64Column)
	pad := t.Cols[1].(*storage.StringColumn)
	filler := bytes.Repeat([]byte("x"), 90)
	for i := 0; i < 1<<16; i++ {
		k.Values = append(k.Values, int64(i))
		pad.AppendString(string(filler))
	}
	return sql.Catalog{"wide": t}
}

// slowCatalog returns a join large enough that, executed with one worker,
// the query reliably outlives watchdog ticks and short drain grace windows.
var slowCatalogOnce = sync.OnceValue(func() sql.Catalog {
	const n = 4 << 20
	bs := storage.NewSchema(storage.ColumnDef{Name: "k", Type: storage.Int64})
	build := storage.NewTable("build", bs, 1024)
	bk := build.Cols[0].(*storage.Int64Column)
	for i := 0; i < 1024; i++ {
		bk.Values = append(bk.Values, int64(i))
	}
	ps := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.Int64},
		storage.ColumnDef{Name: "v", Type: storage.Int64},
	)
	probe := storage.NewTable("probe", ps, n)
	pk := probe.Cols[0].(*storage.Int64Column)
	pv := probe.Cols[1].(*storage.Int64Column)
	for i := 0; i < n; i++ {
		pk.Values = append(pk.Values, int64(i%1024))
		pv.Values = append(pv.Values, int64(i))
	}
	return sql.Catalog{"build": build, "probe": probe}
})

// harness boots a server over an httptest listener and checks for goroutine
// leaks once the test has drained it.
type harness struct {
	srv  *server.Server
	ts   *httptest.Server
	base string
}

func newHarness(t *testing.T, cfg server.Config, cat sql.Catalog) *harness {
	t.Helper()
	baseline := runtime.NumGoroutine()
	srv := server.New(cfg, cat)
	ts := httptest.NewServer(srv)
	h := &harness{srv: srv, ts: ts, base: ts.URL}
	t.Cleanup(func() {
		srv.Drain(10 * time.Second)
		ts.Close()
		waitGoroutines(t, baseline)
	})
	return h
}

func (h *harness) client() *server.Client {
	return &server.Client{Base: h.base, HTTP: h.ts.Client()}
}

// waitGoroutines polls until the goroutine count returns to the baseline;
// a count still above it after the deadline is a leak.
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
			t.Fatalf("goroutine leak after drain: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// rawQuery posts an arbitrary request body to /query and decodes the
// response, for tests exercising per-request overrides the typed client
// does not expose.
func rawQuery(t *testing.T, h *harness, body map[string]any) (int, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := h.ts.Client().Post(h.base+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("post /query: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /query response: %v", err)
	}
	return resp.StatusCode, doc
}

const joinCount = "SELECT count(*) AS n FROM probe r, build s WHERE r.k = s.k"

func TestQueryAndPlanCacheDifferential(t *testing.T) {
	// The result cache sits above the plan cache and would satisfy the
	// repeats before planning; disable it so this test exercises the
	// plan-cache layer itself.
	h := newHarness(t, server.Config{NoResultCache: true}, testCatalog())
	cl := h.client()
	ctx := context.Background()

	fresh, err := cl.Query(ctx, joinCount)
	if err != nil {
		t.Fatalf("fresh query: %v", err)
	}
	if fresh.CacheHit() {
		t.Fatal("first execution reported a plan-cache hit")
	}
	// Same statement, different whitespace and case: must normalize onto the
	// same cache key and return a byte-identical result set.
	cached, err := cl.Query(ctx, "select COUNT(*) as N  from probe r, build s where r.k = s.k")
	if err != nil {
		t.Fatalf("cached query: %v", err)
	}
	if !cached.CacheHit() {
		t.Fatal("re-execution missed the plan cache")
	}
	if !reflect.DeepEqual(fresh.Rows, cached.Rows) {
		t.Fatalf("cached execution differs from fresh: %v vs %v", cached.Rows, fresh.Rows)
	}
	if fresh.Rows[0][0].(float64) != 1000 {
		t.Fatalf("count = %v, want 1000", fresh.Rows[0][0])
	}

	// A second client (new connection, no session) shares the same plan.
	if res, err := h.client().Query(ctx, joinCount); err != nil || !res.CacheHit() {
		t.Fatalf("cross-client reuse: err=%v hit=%v", err, res != nil && res.CacheHit())
	}

	st := h.srv.Stats()
	if st.PlanCache.Hits < 2 || st.PlanCache.Size != 1 {
		t.Fatalf("cache stats = %+v, want >=2 hits over 1 entry", st.PlanCache)
	}
}

// TestStatszReportsThePagePool: the page pool keeps the pages a query gave
// back, on purpose, so /statsz shows them: after a join has finished its
// pages are idle in the pool and none is out, and the pool has counted the
// pages it had to allocate.
func TestStatszReportsThePagePool(t *testing.T) {
	h := newHarness(t, server.Config{NoResultCache: true}, testCatalog())
	ctx := context.Background()
	if _, err := h.client().Query(ctx, joinCount); err != nil {
		t.Fatal(err)
	}
	st, err := h.client().Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pp := st.PagePool; pp.IdleBytes == 0 || pp.OutBytes != 0 || pp.Misses == 0 {
		t.Fatalf("page_pool = %+v after a join, want idle pages, none out, and the misses that allocated them", pp)
	}
	resp, err := h.ts.Client().Get(h.base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		PagePool map[string]json.Number `json:"page_pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"idle_bytes", "out_bytes", "misses"} {
		if _, ok := doc.PagePool[k]; !ok {
			t.Fatalf("/statsz page_pool = %v, missing %q", doc.PagePool, k)
		}
	}
}

func TestPlanCacheInvalidationOnRegisterTable(t *testing.T) {
	h := newHarness(t, server.Config{}, testCatalog())
	cl := h.client()
	ctx := context.Background()

	before, err := cl.Query(ctx, "SELECT sum(pay) AS s FROM build")
	if err != nil {
		t.Fatalf("query: %v", err)
	}

	// Reload "build" with doubled payloads; the cached plan must not serve
	// the old storage generation.
	bs := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.Int64},
		storage.ColumnDef{Name: "pay", Type: storage.Int64},
	)
	nb := storage.NewTable("build", bs, 100)
	nk := nb.Cols[0].(*storage.Int64Column)
	np := nb.Cols[1].(*storage.Int64Column)
	for i := 0; i < 100; i++ {
		nk.Values = append(nk.Values, int64(i))
		np.Values = append(np.Values, int64(i)*20)
	}
	h.srv.RegisterTable(nb)

	after, err := cl.Query(ctx, "SELECT sum(pay) AS s FROM build")
	if err != nil {
		t.Fatalf("query after reload: %v", err)
	}
	if after.CacheHit() {
		t.Fatal("query after table re-registration hit a stale cached plan")
	}
	if b, a := before.Rows[0][0].(float64), after.Rows[0][0].(float64); a != 2*b {
		t.Fatalf("sum after reload = %v, want %v", a, 2*b)
	}
	if h.srv.Stats().PlanCache.Size != 1 {
		t.Fatalf("cache size = %d after purge+refill, want 1", h.srv.Stats().PlanCache.Size)
	}
}

func TestSessionDefaultsAndPlanSharing(t *testing.T) {
	h := newHarness(t, server.Config{}, testCatalog())
	ctx := context.Background()

	// Sessions differing only in execution-time knobs share one plan.
	a, b := h.client(), h.client()
	if _, err := a.NewSession(ctx, server.SessionDefaults{Algo: "bhj"}); err != nil {
		t.Fatalf("session a: %v", err)
	}
	if _, err := b.NewSession(ctx, server.SessionDefaults{Algo: "rj", MemBudget: 8 << 20}); err != nil {
		t.Fatalf("session b: %v", err)
	}
	if res, err := a.Query(ctx, joinCount); err != nil || res.CacheHit() {
		t.Fatalf("session a first query: err=%v hit=%v", err, res != nil && res.CacheHit())
	}
	res, err := b.Query(ctx, joinCount)
	if err != nil || !res.CacheHit() {
		t.Fatalf("algorithms must share plans: err=%v hit=%v", err, res != nil && res.CacheHit())
	}
	if res.Rows[0][0].(float64) != 1000 {
		t.Fatalf("rj session count = %v, want 1000", res.Rows[0][0])
	}

	// A/B rewrite gates shape the prepared tree, so they fork the cache key.
	c := h.client()
	if _, err := c.NewSession(ctx, server.SessionDefaults{NoScanPushdown: true, NoDictCodes: true}); err != nil {
		t.Fatalf("session c: %v", err)
	}
	gated, err := c.Query(ctx, joinCount)
	if err != nil || gated.CacheHit() {
		t.Fatalf("gated session must compile its own plan: err=%v hit=%v", err, gated != nil && gated.CacheHit())
	}
	if !reflect.DeepEqual(gated.Rows, res.Rows) {
		t.Fatalf("gated plan answers differently: %v vs %v", gated.Rows, res.Rows)
	}

	stale := c.Session
	if err := c.EndSession(ctx); err != nil {
		t.Fatalf("end session: %v", err)
	}
	c.Session = stale
	if _, err := c.Query(ctx, joinCount); err == nil {
		t.Fatal("query on deleted session succeeded")
	}

	// An unknown algorithm is rejected at session creation.
	if _, err := h.client().NewSession(ctx, server.SessionDefaults{Algo: "nested-loops"}); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestSessionExpiry(t *testing.T) {
	h := newHarness(t, server.Config{
		SessionTTL:      50 * time.Millisecond,
		JanitorInterval: 10 * time.Millisecond,
	}, testCatalog())
	cl := h.client()
	ctx := context.Background()
	id, err := cl.NewSession(ctx, server.SessionDefaults{})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.srv.Stats().SessionsExpired == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session %s not expired after idle TTL", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.Query(ctx, joinCount); err == nil {
		t.Fatal("query on expired session succeeded")
	}
}

// TestResultCacheHeader asserts the X-Result-Cache response header at the
// HTTP layer: "miss" on the filling execution, "hit" on the replay, absent
// when the server runs without a result cache.
func TestResultCacheHeader(t *testing.T) {
	h := newHarness(t, server.Config{}, testCatalog())
	post := func(base string) *http.Response {
		t.Helper()
		body := strings.NewReader(`{"sql": "SELECT count(*) AS n FROM probe"}`)
		resp, err := http.Post(base+"/query", "application/json", body)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d", resp.StatusCode)
		}
		return resp
	}
	if got := post(h.base).Header.Get("X-Result-Cache"); got != "miss" {
		t.Fatalf("first execution X-Result-Cache = %q, want miss", got)
	}
	if got := post(h.base).Header.Get("X-Result-Cache"); got != "hit" {
		t.Fatalf("repeat X-Result-Cache = %q, want hit", got)
	}

	off := newHarness(t, server.Config{NoResultCache: true}, testCatalog())
	if got, ok := post(off.base).Header["X-Result-Cache"]; ok {
		t.Fatalf("cache-disabled server sent X-Result-Cache %v, want absent", got)
	}
}

func TestStreamingMatchesCollected(t *testing.T) {
	h := newHarness(t, server.Config{StreamChunk: 64}, testCatalog())
	cl := h.client()
	ctx := context.Background()

	collected, err := cl.Query(ctx, "SELECT k, v FROM probe")
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	var streamed [][]any
	tr, err := cl.QueryStream(ctx, "SELECT k, v FROM probe", func(row []any) error {
		streamed = append(streamed, row)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if tr.RowCount != collected.RowCount || len(streamed) != collected.RowCount {
		t.Fatalf("streamed %d rows, trailer says %d, collected %d",
			len(streamed), tr.RowCount, collected.RowCount)
	}
	if !reflect.DeepEqual(streamed, collected.Rows) {
		t.Fatal("streamed rows differ from collected rows")
	}
	if tr.Stats.PlanCache != "hit" {
		t.Fatalf("stream trailer plan_cache = %q, want hit", tr.Stats.PlanCache)
	}
}

func TestMidStreamDisconnectReleasesReservation(t *testing.T) {
	broker := admit.NewBroker(admit.Config{GlobalMem: 64 << 20})
	defer broker.Close()
	h := newHarness(t, server.Config{Broker: broker, StreamChunk: 16}, wideCatalog())
	cl := h.client()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	_, err := cl.QueryStream(ctx, "SELECT k, pad FROM wide", func(row []any) error {
		rows++
		if rows == 8 {
			// Stop reading and kill the connection: the server must notice
			// within one chunk and unwind, releasing the reservation.
			cancel()
			return errors.New("client walked away")
		}
		return nil
	})
	if err == nil {
		t.Fatal("abandoned stream reported success")
	}

	deadline := time.Now().Add(5 * time.Second)
	for broker.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reservation not released after mid-stream disconnect: %d bytes still held",
				broker.InUse())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShedMapsTo429WithRetryAfter(t *testing.T) {
	// MaxWait < 0 sheds on arrival whenever the pool cannot admit, making
	// the overload deterministic: the test itself holds the whole pool.
	broker := admit.NewBroker(admit.Config{
		GlobalMem:       1 << 20,
		PerQueryDefault: 1 << 20,
		MaxWait:         -1,
	})
	defer broker.Close()
	h := newHarness(t, server.Config{Broker: broker}, testCatalog())

	rsv, _, err := broker.Admit(context.Background(), 1<<20)
	if err != nil {
		t.Fatalf("hold pool: %v", err)
	}
	_, qerr := h.client().Query(context.Background(), joinCount)
	rsv.Release()
	var re *server.RemoteError
	if !errors.As(qerr, &re) {
		t.Fatalf("want RemoteError, got %v", qerr)
	}
	if re.Status != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", re.Status)
	}
	if !re.Overloaded() || re.RetryAfter <= 0 {
		t.Fatalf("shed response carries no backoff: %+v", re)
	}
	if st := h.srv.Stats(); st.Queries.Overloaded != 1 || st.Broker.Sheds != 1 {
		t.Fatalf("shed counters = %+v / broker %+v", st.Queries, st.Broker)
	}

	// With the pool free again the same statement succeeds.
	if _, err := h.client().Query(context.Background(), joinCount); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

func TestWatchdogKillMapsTo500(t *testing.T) {
	faultinject.FailOnLeak(t)
	broker := admit.NewBroker(admit.Config{
		GlobalMem:        64 << 20,
		StallWindow:      50 * time.Millisecond,
		WatchdogInterval: 5 * time.Millisecond,
	})
	defer broker.Close()
	h := newHarness(t, server.Config{Broker: broker, Workers: 1}, testCatalog())
	// Wedge the single worker at its first morsel claim — right after the
	// progress tick — for far longer than the stall window, so the genuine
	// no-progress detection (not an injected watchdog error) kills the query.
	// The kill's cancel ends the stall, however late a starved tick fires.
	faultinject.Arm(t, exec.MorselSite, faultinject.Fault{Kind: faultinject.Stall, Stall: 30 * time.Second, Once: true})

	_, err := h.client().Query(context.Background(), joinCount)
	var re *server.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Status != http.StatusInternalServerError {
		t.Fatalf("watchdog kill status = %d, want 500", re.Status)
	}
	st := h.srv.Stats()
	if st.Queries.Stalled != 1 || st.Broker.StallKills != 1 {
		t.Fatalf("stall counters = %+v / broker %+v", st.Queries, st.Broker)
	}
	if broker.InUse() != 0 {
		t.Fatalf("killed query leaked %d reserved bytes", broker.InUse())
	}
}

func TestTimeoutMapsTo408(t *testing.T) {
	h := newHarness(t, server.Config{Workers: 1}, slowCatalogOnce())
	status, doc := rawQuery(t, h, map[string]any{"sql": joinCount, "timeout_ms": 1})
	if status != http.StatusRequestTimeout {
		t.Fatalf("timeout status = %d (%v), want 408", status, doc)
	}
	if h.srv.Stats().Queries.Timeout != 1 {
		t.Fatalf("timeout counter = %d, want 1", h.srv.Stats().Queries.Timeout)
	}
}

func TestBadRequestsMapTo400(t *testing.T) {
	h := newHarness(t, server.Config{}, testCatalog())
	for _, body := range []map[string]any{
		{"sql": ""},
		{"sql": "SELEC nonsense"},
		{"sql": "SELECT count(*) FROM nosuchtable"},
		{"sql": joinCount, "session": "s-unknown"},
	} {
		status, doc := rawQuery(t, h, body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %v: status = %d (%v), want 400", body, status, doc)
		}
	}
	if got := h.srv.Stats().Queries.BadRequest; got != 4 {
		t.Fatalf("bad-request counter = %d, want 4", got)
	}
}

// TestUnknownSessionIsNotAnInternalError: deleting a session that does not
// exist is the client's mistake: a 404, counted as a bad request, never as
// an internal failure.
func TestUnknownSessionIsNotAnInternalError(t *testing.T) {
	h := newHarness(t, server.Config{}, testCatalog())
	req, err := http.NewRequest(http.MethodDelete, h.base+"/session/s-unknown", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if q := h.srv.Stats().Queries; q.Internal != 0 || q.BadRequest != 1 {
		t.Fatalf("internal = %d, bad_request = %d; want 0 and 1", q.Internal, q.BadRequest)
	}
}

func TestDrainRefusesNewWorkAndFlipsHealthz(t *testing.T) {
	h := newHarness(t, server.Config{}, testCatalog())
	cl := h.client()
	ctx := context.Background()
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("healthz while serving: %v", err)
	}
	if !h.srv.Drain(time.Second) {
		t.Fatal("idle drain was not clean")
	}
	if err := cl.Healthz(ctx); err == nil {
		t.Fatal("healthz ok while draining")
	}
	_, err := cl.Query(ctx, joinCount)
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %v, want 503", err)
	}
	// A refusal is the surface being unavailable, not an internal error.
	if q := h.srv.Stats().Queries; q.Unavailable != 1 || q.Internal != 0 {
		t.Fatalf("refusal counted as unavailable=%d internal=%d, want 1 and 0", q.Unavailable, q.Internal)
	}
	// Idempotent: a second drain returns immediately.
	if !h.srv.Drain(time.Second) {
		t.Fatal("repeat drain not clean")
	}
}

func TestDrainCancelsStragglers(t *testing.T) {
	h := newHarness(t, server.Config{Workers: 1}, slowCatalogOnce())
	cl := h.client()

	errCh := make(chan error, 1)
	go func() {
		_, err := cl.Query(context.Background(), joinCount)
		errCh <- err
	}()
	// Wait for the query to be in flight, then drain with a grace window far
	// shorter than its runtime.
	deadline := time.Now().Add(5 * time.Second)
	for h.srv.Stats().Queries.Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never became active")
		}
		time.Sleep(time.Millisecond)
	}
	if clean := h.srv.Drain(time.Millisecond); clean {
		t.Fatal("drain reported clean despite a straggler")
	}
	err := <-errCh
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("straggler result = %v, want 503 (cancelled by drain)", err)
	}
}

// TestConcurrentSessionsSoak is the in-package half of the acceptance soak:
// many concurrent sessions streaming against one tight broker, with clients
// that shed-and-retry, one that disconnects mid-stream, and one killed by
// the watchdog — all while -race watches, and with pool balance and
// goroutine counts asserted after a clean drain.
func TestConcurrentSessionsSoak(t *testing.T) {
	faultinject.FailOnLeak(t)
	const clients = 8
	const iters = 4
	broker := admit.NewBroker(admit.Config{
		GlobalMem:        8 << 20,
		PerQueryDefault:  2 << 20,
		QueueDepth:       clients,
		MaxWait:          500 * time.Millisecond,
		StallWindow:      time.Hour, // during the soak only the armed fault may kill
		WatchdogInterval: 5 * time.Millisecond,
	})
	defer broker.Close()
	cat := testCatalog()
	for k, v := range wideCatalog() {
		cat[k] = v
	}
	h := newHarness(t, server.Config{Broker: broker, StreamChunk: 32}, cat)

	var totalRows, sheds, retries int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := h.client()
			ctx := context.Background()
			if _, err := cl.NewSession(ctx, server.SessionDefaults{Algo: []string{"bhj", "rj"}[ci%2]}); err != nil {
				errCh <- fmt.Errorf("client %d session: %w", ci, err)
				return
			}
			for it := 0; it < iters; it++ {
				var rows int64
				for {
					n := int64(0)
					_, err := cl.QueryStream(ctx, "SELECT k, v FROM probe", func([]any) error {
						n++
						return nil
					})
					if err != nil {
						var re *server.RemoteError
						if errors.As(err, &re) && re.Overloaded() {
							mu.Lock()
							sheds++
							retries++
							mu.Unlock()
							time.Sleep(5 * time.Millisecond)
							continue
						}
						errCh <- fmt.Errorf("client %d iter %d: %w", ci, it, err)
						return
					}
					rows = n
					break
				}
				mu.Lock()
				totalRows += rows
				mu.Unlock()
			}
			_ = cl.EndSession(ctx)
		}(ci)
	}

	// One extra client abandons a fat stream mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		n := 0
		h.client().QueryStream(ctx, "SELECT k, pad FROM wide", func([]any) error {
			if n++; n == 4 {
				cancel()
			}
			return nil
		})
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if want := int64(clients * iters * 1000); totalRows != want {
		t.Fatalf("streamed %d rows total, want %d", totalRows, want)
	}

	// One more query, watchdog-killed: a morsel stall flattens its progress
	// counter and the armed watchdog fault turns the first flat sample into
	// a kill — proving kills coexist with the healthy traffic this broker
	// just served. Both faults sit on process-global sites and fire once, so
	// nothing else may be running when they are armed: the abandoned fat
	// stream (and any client whose trailer beat its release) must have
	// unwound first. The stall outlasts any watchdog tick and ends when the
	// kill cancels the query, so a starved tick only delays the kill.
	deadline := time.Now().Add(10 * time.Second)
	for broker.InUse() != 0 || h.srv.Stats().Queries.Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("soak traffic never unwound: %d B reserved, %d queries active",
				broker.InUse(), h.srv.Stats().Queries.Active)
		}
		time.Sleep(time.Millisecond)
	}
	faultinject.Arm(t, exec.MorselSite, faultinject.Fault{Kind: faultinject.Stall, Stall: 30 * time.Second, Once: true})
	faultinject.Arm(t, admit.WatchdogSite, faultinject.Fault{Kind: faultinject.Fail, Once: true})
	wcl := h.client()
	wcl.QueryID = "soak-watchdog-target"
	_, werr := wcl.Query(context.Background(), joinCount)
	// Which query consumed each Once fault: a fault still armed was consumed
	// by no one, and a 500 carrying the target's id means the kill was ours.
	t.Logf("watchdog target %s: %v; sites still armed: %v; stall kills %d",
		wcl.QueryID, werr, faultinject.Armed(), broker.StallKills())
	var wre *server.RemoteError
	if !errors.As(werr, &wre) || wre.Status != http.StatusInternalServerError || wre.QueryID != wcl.QueryID {
		t.Fatalf("watchdog-targeted query: %v, want 500 for %s", werr, wcl.QueryID)
	}
	if broker.StallKills() == 0 {
		t.Fatal("watchdog recorded no kill")
	}

	if clean := h.srv.Drain(10 * time.Second); !clean {
		t.Fatal("soak drain was not clean")
	}
	if inUse := broker.InUse(); inUse != 0 {
		t.Fatalf("broker pool unbalanced after drain: %d bytes in use", inUse)
	}
	st := h.srv.Stats()
	if st.Sessions != 0 {
		t.Fatalf("%d sessions survived drain", st.Sessions)
	}
	t.Logf("soak: %d queries (%d ok, %d shed server-side), cache %d/%d hits, %d retries client-side",
		st.Queries.Total, st.Queries.OK, st.Queries.Overloaded,
		st.PlanCache.Hits, st.PlanCache.Hits+st.PlanCache.Misses, retries)
}

// TestServeSoak32Clients is the overload half of the acceptance soak: 32
// closed-loop clients over mixed TPC-H traffic against two admission slots
// with no queueing slack, so any arrival that cannot run at once is shed
// and every shed client must recover by retrying with the server's
// suggested backoff. The result cache is off: cached replays skip the
// broker, and a warmed workload would then never contend. The overload is
// made, not left to timing: the test holds both slots until the first
// arrivals have been shed.
func TestServeSoak32Clients(t *testing.T) {
	const clients, iters = 32, 5
	broker := admit.NewBroker(admit.Config{
		GlobalMem:       32 << 20,
		PerQueryDefault: 2 << 20,
		MaxConcurrency:  2,
		QueueDepth:      clients,
		MaxWait:         -1,
		StallWindow:     30 * time.Second,
	})
	defer broker.Close()
	h := newHarness(t, server.Config{Broker: broker, NoResultCache: true}, tpch.ServeCatalog(0.002))
	queries := tpch.ServeQueries()
	ctx := context.Background()
	// query runs one statement to completion, sleeping out each shed.
	query := func(cl *server.Client, q string) (res *server.QueryResult, sheds int64, err error) {
		for {
			res, err = cl.Query(ctx, q)
			var re *server.RemoteError
			if !errors.As(err, &re) || !re.Overloaded() {
				return res, sheds, err
			}
			sheds++
			time.Sleep(min(max(re.RetryAfter, 10*time.Millisecond), time.Second))
		}
	}
	for _, q := range queries { // warm the plan cache
		if _, _, err := query(h.client(), q); err != nil {
			t.Fatalf("warmup %q: %v", q, err)
		}
	}

	held := make([]*admit.Reservation, 2)
	for i := range held {
		r, _, err := broker.Admit(ctx, 0)
		if err != nil {
			t.Fatalf("holding admission slot %d: %v", i, err)
		}
		held[i] = r
	}
	release := sync.OnceFunc(func() {
		for _, r := range held {
			r.Release()
		}
	})
	defer release()
	shedBefore := broker.Sheds()

	var completed, sheds, hits atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := h.client()
			for it := 0; it < iters; it++ {
				res, n, err := query(cl, queries[(ci+it)%len(queries)])
				sheds.Add(n)
				if err != nil {
					t.Errorf("client %d iter %d: %v", ci, it, err)
					return
				}
				completed.Add(1)
				if res.CacheHit() {
					hits.Add(1)
				}
			}
		}(ci)
	}
	deadline := time.Now().Add(10 * time.Second)
	for broker.Sheds() == shedBefore && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if want := int64(clients * iters); completed.Load() != want {
		t.Fatalf("completed %d queries, want %d", completed.Load(), want)
	}
	if sheds.Load() == 0 {
		t.Fatal("no sheds: the soak did not exercise overload")
	}
	// The warmup pass primes every distinct statement, so the measured loop
	// must run almost entirely on cached plans.
	if rate := float64(hits.Load()) / float64(completed.Load()); rate <= 0.9 {
		t.Fatalf("plan-cache hit rate %.2f, want > 0.9", rate)
	}
	if clean := h.srv.Drain(10 * time.Second); !clean {
		t.Fatal("drain grace exceeded with idle clients")
	}
	if inUse := broker.InUse(); inUse != 0 {
		t.Fatalf("broker leaked %d reserved bytes after drain", inUse)
	}
	t.Logf("soak: %d completed, %d sheds, %d plan-cache hits", completed.Load(), sheds.Load(), hits.Load())
}

// TestDrainWhileStreamingFinishesStream: SIGTERM's drain must not cut an
// NDJSON stream mid-flight — the in-progress stream runs to its trailer
// while new queries are refused with 503, and the drain reports clean.
func TestDrainWhileStreamingFinishesStream(t *testing.T) {
	h := newHarness(t, server.Config{Workers: 1, StreamChunk: 64}, wideCatalog())
	cl := h.client()

	started := make(chan struct{})
	release := make(chan struct{})
	type streamOut struct {
		tr  *server.StreamTrailer
		n   int
		err error
	}
	outCh := make(chan streamOut, 1)
	go func() {
		var out streamOut
		var once sync.Once
		out.tr, out.err = cl.QueryStream(context.Background(),
			"SELECT k, pad FROM wide", func(row []any) error {
				out.n++
				once.Do(func() { close(started) })
				if out.n == 1 {
					<-release // hold the stream open until drain has begun
				}
				return nil
			})
		outCh <- out
	}()
	<-started

	drainDone := make(chan bool, 1)
	go func() { drainDone <- h.srv.Drain(30 * time.Second) }()

	// The draining server refuses new work while the stream is still live.
	refused := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, err := cl.Query(context.Background(), "SELECT count(*) AS n FROM wide")
		var re *server.RemoteError
		if errors.As(err, &re) && re.Status == http.StatusServiceUnavailable {
			refused = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Error("draining server kept accepting new queries")
	}

	close(release)
	if clean := <-drainDone; !clean {
		t.Error("drain was not clean despite the stream finishing in grace")
	}
	out := <-outCh
	if out.err != nil {
		t.Fatalf("stream interrupted by drain: %v", out.err)
	}
	if out.tr == nil || out.tr.RowCount != 1<<16 || out.n != 1<<16 {
		t.Fatalf("stream incomplete: trailer %+v, %d rows seen, want %d", out.tr, out.n, 1<<16)
	}
}

// TestQueryIDPropagatesEndToEnd: a caller-supplied X-Query-ID comes back on
// collected results, stream trailers, and error bodies, so one id follows
// the query through every layer.
func TestQueryIDPropagatesEndToEnd(t *testing.T) {
	h := newHarness(t, server.Config{}, testCatalog())
	cl := h.client()
	cl.QueryID = "trace-abc"
	ctx := context.Background()

	res, err := cl.Query(ctx, joinCount)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID != "trace-abc" {
		t.Fatalf("collected QueryID = %q, want trace-abc", res.QueryID)
	}

	tr, err := cl.QueryStream(ctx, joinCount, func([]any) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if tr.QueryID != "trace-abc" {
		t.Fatalf("trailer QueryID = %q, want trace-abc", tr.QueryID)
	}

	_, err = cl.Query(ctx, "SELECT nope FROM nowhere")
	var re *server.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if re.QueryID != "trace-abc" {
		t.Fatalf("error QueryID = %q, want trace-abc", re.QueryID)
	}

	// Hostile ids are sanitized, not echoed: spaces and non-ASCII drop,
	// length is bounded to 64.
	cl.QueryID = "evil id ☠ " + strings.Repeat("z", 80)
	res, err = cl.Query(ctx, joinCount)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QueryID) > 64 || strings.ContainsAny(res.QueryID, " ☠") ||
		!strings.HasPrefix(res.QueryID, "evilid") {
		t.Fatalf("sanitized QueryID = %q", res.QueryID)
	}
}
