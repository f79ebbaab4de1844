package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/server"
)

const chaosQuery = `SELECT count(*) AS n FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey`

// TestConnectFaultRetriesAndSucceeds: a refused connection on the first
// attempt is retried with backoff and the query still answers correctly.
func TestConnectFaultRetriesAndSucceeds(t *testing.T) {
	faultinject.FailOnLeak(t)
	h := newCluster(t, 3, nil)
	faultinject.Arm(t, "cluster.fragment.connect", faultinject.Fault{
		Kind: faultinject.Fail, Once: true, Message: "connection refused",
	})
	res, err := h.coord.Query(context.Background(), chaosQuery, "")
	if err != nil {
		t.Fatalf("query with connect fault: %v", err)
	}
	if res.Stats.Retries < 1 {
		t.Fatalf("stats = %+v, want at least one retry", res.Stats)
	}
	want := singleNode(t, chaosQuery)
	rowsMatch(t, res.Rows, want.Rows)
}

// TestMidStreamFaultRetriesAndSucceeds: a hangup in the middle of the row
// stream discards the partial rows and re-dispatches the fragment.
func TestMidStreamFaultRetriesAndSucceeds(t *testing.T) {
	faultinject.FailOnLeak(t)
	h := newCluster(t, 3, nil)
	faultinject.Arm(t, "cluster.fragment.stream", faultinject.Fault{
		Kind: faultinject.Fail, Once: true, Message: "connection reset mid-stream",
	})
	// A plain select wide enough that fragments stream many rows.
	q := `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 10`
	res, err := h.coord.Query(context.Background(), q, "")
	if err != nil {
		t.Fatalf("query with stream fault: %v", err)
	}
	if res.Stats.Retries < 1 {
		t.Fatalf("stats = %+v, want at least one retry", res.Stats)
	}
	want := singleNode(t, q)
	sortRows(res.Rows)
	sortRows(want.Rows)
	rowsMatch(t, res.Rows, want.Rows)
}

// TestSlowShardTripsFragmentDeadline: a stalled shard exhausts the fragment
// deadline; one stall is absorbed by a retry, a persistent stall surfaces
// the typed unavailability error.
func TestSlowShardTripsFragmentDeadline(t *testing.T) {
	faultinject.FailOnLeak(t)
	h := newCluster(t, 2, func(c *Config) {
		c.FragmentTimeout = 100 * time.Millisecond
		c.MaxRetries = 1
	})
	// One stall: the retry answers.
	faultinject.Arm(t, "cluster.fragment.slow", faultinject.Fault{
		Kind: faultinject.Stall, Stall: 300 * time.Millisecond, Once: true,
	})
	res, err := h.coord.Query(context.Background(), chaosQuery, "")
	if err != nil {
		t.Fatalf("query with one stall: %v", err)
	}
	if res.Stats.Retries < 1 {
		t.Fatalf("stats = %+v, want a retry after the deadline trip", res.Stats)
	}

	// Persistent stall: retries exhaust into ErrShardUnavailable.
	faultinject.Arm(t, "cluster.fragment.slow", faultinject.Fault{
		Kind: faultinject.Stall, Stall: 300 * time.Millisecond,
	})
	_, err = h.coord.Query(context.Background(), chaosQuery, "")
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("persistent stall: err = %v, want ErrShardUnavailable", err)
	}
	faultinject.Disable("cluster.fragment.slow")
}

// TestShardDeathSurfacesTypedRetryableError: killing a shard makes queries
// that need it fail with the typed, retryable error — and queries that
// don't need it still succeed.
func TestShardDeathSurfacesTypedRetryableError(t *testing.T) {
	h := newCluster(t, 3, func(c *Config) {
		c.MaxRetries = 1
		c.ProbeInterval = 10 * time.Millisecond
		c.ProbeTimeout = 100 * time.Millisecond
		c.DownAfter = 2
	})
	h.killShard(1)

	_, err := h.coord.Query(context.Background(), chaosQuery, "")
	var se *ShardUnavailableError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardUnavailableError", err)
	}
	if se.Shard != 1 || !se.Retryable() || se.RetryAfter <= 0 {
		t.Fatalf("error detail = %+v", se)
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatal("errors.Is(ErrShardUnavailable) = false")
	}

	// Once the prober marks the shard Down, replicated-only queries route
	// around the corpse.
	deadline := time.Now().Add(5 * time.Second)
	for h.coord.shards[1].State() != Down {
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never went Down, state = %v", h.coord.shards[1].State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if _, err := h.coord.Query(context.Background(),
			`SELECT count(*) AS n FROM nation`, ""); err != nil {
			t.Fatalf("replicated query after shard death: %v", err)
		}
	}
}

// TestShardDeathOverHTTPIs503WithRetryAfter: the same failure through the
// HTTP front is a 503 with Retry-After — the contract sqlrun's auto-retry
// honors.
func TestShardDeathOverHTTPIs503WithRetryAfter(t *testing.T) {
	h := newCluster(t, 3, func(c *Config) { c.MaxRetries = 0 })
	ts := httptest.NewServer(h.coord)
	defer ts.Close()
	h.killShard(0)

	cl := &server.Client{Base: ts.URL}
	_, err := cl.Query(context.Background(), chaosQuery)
	var re *server.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if re.Status != 503 || !re.Overloaded() || re.RetryAfter <= 0 {
		t.Fatalf("remote error = %+v, want 503 with Retry-After", re)
	}
}

// TestFragmentBackoffHonorsExactRetryAfter: a shard's exact backoff hint
// (retry_after_ms) floors the fragment retry, not the whole-second
// Retry-After header rounded up from it.
func TestFragmentBackoffHonorsExactRetryAfter(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"admit: overloaded","query_id":"q1","retry_after_ms":200}`)
	}))
	defer shard.Close()
	c, err := New(Config{Shards: []string{shard.URL}, Spec: Spec{"t": {}}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Drain(time.Second)
	_, _, err = c.attemptFragment(context.Background(), shard.URL, "", "SELECT count(*) AS n FROM t", "q1")
	var fe *fragError
	if !errors.As(err, &fe) || !fe.retryable {
		t.Fatalf("err = %v, want a retryable fragment error", err)
	}
	if fe.retryAfter != 200*time.Millisecond {
		t.Fatalf("backoff floor = %v, want 200ms", fe.retryAfter)
	}
}

// TestMidRowCutIsRetried: a shard that dies in the middle of a row — its
// connection closes after a header, one whole row and half of the next —
// cut the stream short; it did not send a malformed one. The attempt is
// retryable, and the query succeeds on the re-dispatch.
func TestMidRowCutIsRetried(t *testing.T) {
	var calls atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"query_id":"q1","cols":[{"name":"n","type":"INT64"}]}`+"\n[12]\n")
		if calls.Add(1) == 1 {
			io.WriteString(w, "[12")
			w.(http.Flusher).Flush()
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		io.WriteString(w, `{"query_id":"q1","row_count":1,"stats":{}}`+"\n")
	}))
	defer shard.Close()
	c, err := New(Config{Shards: []string{shard.URL}, Spec: Spec{"t": {}}, ProbeInterval: -1,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Drain(time.Second)
	_, _, err = c.attemptFragment(context.Background(), shard.URL, "", "SELECT count(*) AS n FROM t", "q1")
	var fe *fragError
	if !errors.As(err, &fe) || !fe.retryable || errors.Is(err, server.ErrBadStream) {
		t.Fatalf("err = %v, want a retryable truncation", err)
	}
	calls.Store(0)
	res, err := c.Query(context.Background(), "SELECT count(*) AS n FROM t", "")
	if err != nil {
		t.Fatalf("query over a shard cut mid-row: %v", err)
	}
	if res.Stats.Retries < 1 || len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != "[12]" {
		t.Fatalf("rows %v, stats %+v: want [[12]] after at least one retry", res.Rows, res.Stats)
	}
}

// TestShardRestartRecovers: the chaos acceptance path — kill a shard
// mid-workload, watch typed failures, restart it elsewhere, watch the
// cluster answer again with no residue.
func TestShardRestartRecovers(t *testing.T) {
	h := newCluster(t, 3, func(c *Config) { c.MaxRetries = 1 })
	if _, err := h.coord.Query(context.Background(), chaosQuery, ""); err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	h.killShard(2)
	if _, err := h.coord.Query(context.Background(), chaosQuery, ""); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("dead-shard query: err = %v, want ErrShardUnavailable", err)
	}
	h.restartShard(t, 2)
	res, err := h.coord.Query(context.Background(), chaosQuery, "")
	if err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	want := singleNode(t, chaosQuery)
	rowsMatch(t, res.Rows, want.Rows)
}

// TestStaleRingFaultRecoversViaRetry: a router acting on a pre-rebalance
// ring dispatches to the shard's old (dead) address; the retry ladder
// re-resolves and completes.
func TestStaleRingFaultRecoversViaRetry(t *testing.T) {
	faultinject.FailOnLeak(t)
	// One shard, so the Once fault deterministically hits a fragment whose
	// shard actually has a previous (now dead) address.
	h := newCluster(t, 1, nil)
	v := h.coord.Ring().Version()
	h.killShard(0)
	h.restartShard(t, 0) // SetShardAddr: old address retained as prevAddr
	if h.coord.Ring().Version() != v+1 {
		t.Fatal("SetShardAddr did not bump the ring version")
	}
	faultinject.Arm(t, "cluster.ring.stale", faultinject.Fault{
		Kind: faultinject.Fail, Once: true,
	})
	res, err := h.coord.Query(context.Background(), chaosQuery, "")
	if err != nil {
		t.Fatalf("query with stale ring: %v", err)
	}
	if res.Stats.Retries < 1 {
		t.Fatalf("stats = %+v, want a retry off the stale address", res.Stats)
	}
	want := singleNode(t, chaosQuery)
	rowsMatch(t, res.Rows, want.Rows)
}

// TestBreakerUnit: threshold trips it, cooloff half-opens it, success
// closes it, and a half-open failure re-opens immediately.
func TestBreakerUnit(t *testing.T) {
	b := &breaker{threshold: 3, cooloff: 50 * time.Millisecond}
	now := time.Now()
	for i := 0; i < 2; i++ {
		b.fail(now)
		if !b.allow(now) {
			t.Fatalf("open after %d failures, threshold 3", i+1)
		}
	}
	b.fail(now)
	if b.allow(now) {
		t.Fatal("still closed at threshold")
	}
	half := now.Add(60 * time.Millisecond)
	if !b.allow(half) {
		t.Fatal("not half-open after cooloff")
	}
	b.fail(half) // half-open probe fails: re-open from one strike
	if b.allow(half) {
		t.Fatal("half-open failure did not re-open")
	}
	again := half.Add(60 * time.Millisecond)
	if !b.allow(again) {
		t.Fatal("not half-open after second cooloff")
	}
	b.ok()
	if !b.allow(again) || b.open(again) {
		t.Fatal("success did not close the breaker")
	}
	b.mu.Lock()
	trips := b.trips
	b.mu.Unlock()
	if trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
}

// TestBreakerFailsFastOnDeadShard: after enough failures the breaker opens
// and further fragments fail immediately instead of burning their retry
// budget against the corpse.
func TestBreakerFailsFastOnDeadShard(t *testing.T) {
	h := newCluster(t, 2, func(c *Config) {
		c.MaxRetries = 0
		c.BreakerThreshold = 2
		c.BreakerCooloff = 10 * time.Second
	})
	h.killShard(1)
	for i := 0; i < 2; i++ {
		if _, err := h.coord.Query(context.Background(), chaosQuery, ""); err == nil {
			t.Fatal("query against dead shard succeeded")
		}
	}
	before := h.coord.shards[1].fragments.Load()
	_, err := h.coord.Query(context.Background(), chaosQuery, "")
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if after := h.coord.shards[1].fragments.Load(); after != before {
		t.Fatalf("breaker open but %d fragment attempts still dispatched", after-before)
	}
}

// TestProberDrivesStateMachine: the prober walks a shard down through
// degraded as probes fail, and back up after a restart.
func TestProberDrivesStateMachine(t *testing.T) {
	h := newCluster(t, 2, func(c *Config) {
		c.ProbeInterval = 10 * time.Millisecond
		c.ProbeTimeout = 100 * time.Millisecond
		c.DownAfter = 3
	})
	waitState := func(want HealthState) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for h.coord.shards[1].State() != want {
			if time.Now().After(deadline) {
				t.Fatalf("shard 1 state = %v, want %v", h.coord.shards[1].State(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitState(Up)
	h.killShard(1)
	waitState(Down)
	// While down, partitioned queries fail fast without dialing the corpse.
	if _, err := h.coord.Query(context.Background(), chaosQuery, ""); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	h.restartShard(t, 1)
	waitState(Up)
	if _, err := h.coord.Query(context.Background(), chaosQuery, ""); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

// TestCoordinatorDrainCleanAndDirty: a drain with room finishes in-flight
// queries cleanly; a drain with no grace cancels them with ErrDraining.
func TestCoordinatorDrainCleanAndDirty(t *testing.T) {
	faultinject.FailOnLeak(t)

	t.Run("clean", func(t *testing.T) {
		h := newCluster(t, 2, nil)
		var wg sync.WaitGroup
		errCh := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := h.coord.Query(context.Background(), chaosQuery, "")
			errCh <- err
		}()
		time.Sleep(20 * time.Millisecond)
		if !h.coord.Drain(10 * time.Second) {
			t.Error("drain was not clean")
		}
		wg.Wait()
		if err := <-errCh; err != nil {
			t.Errorf("in-flight query during clean drain: %v", err)
		}
	})

	t.Run("dirty", func(t *testing.T) {
		h := newCluster(t, 2, func(c *Config) {
			c.FragmentTimeout = 30 * time.Second
		})
		faultinject.Arm(t, "cluster.fragment.slow", faultinject.Fault{
			Kind: faultinject.Stall, Stall: 400 * time.Millisecond,
		})
		var wg sync.WaitGroup
		errCh := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := h.coord.Query(context.Background(), chaosQuery, "")
			errCh <- err
		}()
		time.Sleep(20 * time.Millisecond)
		if h.coord.Drain(10 * time.Millisecond) {
			t.Error("drain reported clean despite a stalled query")
		}
		wg.Wait()
		if err := <-errCh; !errors.Is(err, ErrDraining) {
			t.Errorf("cancelled query err = %v, want ErrDraining", err)
		}
	})
}

// TestDrainingCoordinatorRefusesQueries: after Drain starts, the HTTP front
// answers 503 and /healthz flips.
func TestDrainingCoordinatorRefusesQueries(t *testing.T) {
	h := newCluster(t, 2, nil)
	ts := httptest.NewServer(h.coord)
	defer ts.Close()
	h.coord.Drain(time.Second)

	cl := &server.Client{Base: ts.URL}
	_, err := cl.Query(context.Background(), chaosQuery)
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Status != 503 {
		t.Fatalf("query on draining coordinator: %v, want 503", err)
	}
	if err := cl.Healthz(context.Background()); err == nil {
		t.Fatal("healthz ok on draining coordinator")
	}
}

// TestNoReservationLeaks: with admission control on, every path — success,
// gather, shard death, drain — returns the pool to empty.
func TestNoReservationLeaks(t *testing.T) {
	broker := admit.NewBroker(admit.Config{GlobalMem: 64 << 20})
	defer broker.Close()
	h := newCluster(t, 3, func(c *Config) {
		c.Broker = broker
		c.MemBudget = 1 << 20
		c.MaxRetries = 0
	})
	queries := []string{
		chaosQuery,
		`SELECT o_orderpriority, count(*) AS n FROM orders o, customer c WHERE o.o_custkey = c.c_custkey GROUP BY o_orderpriority`,
	}
	for _, q := range queries {
		if _, err := h.coord.Query(context.Background(), q, ""); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
	}
	h.killShard(0)
	if _, err := h.coord.Query(context.Background(), chaosQuery, ""); err == nil {
		t.Fatal("dead-shard query succeeded")
	}
	if inUse := broker.InUse(); inUse != 0 {
		t.Fatalf("reservation leak: %d bytes still admitted", inUse)
	}
}

// TestMidQueryCancellationPropagates: cancelling the caller's context stops
// the scatter promptly with the context's cause and leaks nothing (the
// harness cleanup asserts that).
func TestMidQueryCancellationPropagates(t *testing.T) {
	faultinject.FailOnLeak(t)
	h := newCluster(t, 2, func(c *Config) {
		c.FragmentTimeout = 30 * time.Second
	})
	faultinject.Arm(t, "cluster.fragment.slow", faultinject.Fault{
		Kind: faultinject.Stall, Stall: 300 * time.Millisecond,
	})
	cause := errors.New("caller gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel(cause)
	}()
	_, err := h.coord.Query(ctx, chaosQuery, "")
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	cancel(nil)
}

// TestQueryIDPropagatesToShards: the coordinator threads its query id into
// per-fragment ids so shard logs correlate; the shard echoes it back.
func TestQueryIDPropagatesToShards(t *testing.T) {
	h := newCluster(t, 2, nil)
	res, err := h.coord.Query(context.Background(), chaosQuery, "trace-42")
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID != "trace-42" {
		t.Fatalf("QueryID = %q, want trace-42", res.QueryID)
	}
	// The fragment ids derive from the query id (qid.fN.sK.aM); the format
	// is pinned here because operators grep shard logs by prefix.
	aqid := fmt.Sprintf("%s.f%d.s%d.a%d", "trace-42", 0, 0, 0)
	if !strings.HasPrefix(aqid, "trace-42.") {
		t.Fatal("fragment id does not extend the query id")
	}
}
