package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/server"
)

// repHarness is a replicated cluster: N Nodes (each serving its primary
// slice plus boot replicas) and a coordinator with matching Replication.
type repHarness struct {
	coord *Coordinator
	spec  Spec
	nodes []*Node
	ts    []*httptest.Server
	repl  int
}

// newRepCluster boots nShards Nodes under replication factor repl. The
// default coordinator config disables the prober and uses fast retries;
// mut overrides it.
func newRepCluster(t *testing.T, nShards, repl int, mut func(*Config)) *repHarness {
	t.Helper()
	baseline := runtime.NumGoroutine()
	cat := testCat()
	spec, err := TPCHSpec(cat)
	if err != nil {
		t.Fatalf("TPCHSpec: %v", err)
	}
	h := &repHarness{spec: spec, repl: repl}
	addrs := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		node, err := NewNode(cat, spec, NodeConfig{
			ShardID: i, ShardCount: nShards, Replication: repl,
			Server: server.Config{Workers: 1},
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
		ts := httptest.NewServer(node)
		h.nodes = append(h.nodes, node)
		h.ts = append(h.ts, ts)
		addrs[i] = ts.URL
	}
	cfg := Config{
		Shards: addrs, Spec: spec, Replication: repl,
		ProbeInterval:   -1,
		FragmentTimeout: 10 * time.Second,
		MaxRetries:      2,
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
		for _, n := range h.nodes {
			n.Drain(10 * time.Second)
		}
		waitGoroutines(t, baseline)
	})
	return h
}

// killNode stops node i abruptly: open connections reset, the address
// refuses. The coordinator is not told — failover must discover it.
func (h *repHarness) killNode(i int) {
	h.ts[i].CloseClientConnections()
	h.ts[i].Close()
	h.nodes[i].Drain(5 * time.Second)
}

// restartNode boots a fresh Node for shard i (rebuilding its primary and
// boot-replica catalogs from deterministic placement, as a rescheduled
// process would) at a new address and repoints the coordinator.
func (h *repHarness) restartNode(t *testing.T, i int) {
	t.Helper()
	node, err := NewNode(testCat(), h.spec, NodeConfig{
		ShardID: i, ShardCount: len(h.ts), Replication: h.repl,
		Server: server.Config{Workers: 1},
	})
	if err != nil {
		t.Fatalf("NewNode(%d): %v", i, err)
	}
	ts := httptest.NewServer(node)
	h.nodes[i], h.ts[i] = node, ts
	if err := h.coord.SetShardAddr(i, ts.URL); err != nil {
		t.Fatalf("SetShardAddr: %v", err)
	}
}

// TestReplicaChainPlacement pins the deterministic placement algebra every
// node and coordinator must agree on.
func TestReplicaChainPlacement(t *testing.T) {
	for _, tc := range []struct {
		p, r, n int
		want    []int
	}{
		{0, 2, 3, []int{0, 1}},
		{2, 2, 3, []int{2, 0}},
		{1, 3, 4, []int{1, 2, 3}},
		{0, 1, 3, []int{0}},
		{0, 5, 3, []int{0, 1, 2}}, // r clamps to n
		{2, 0, 3, []int{2}},       // r floors at 1
	} {
		got := ReplicaChain(tc.p, tc.r, tc.n)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("ReplicaChain(%d,%d,%d) = %v, want %v", tc.p, tc.r, tc.n, got, tc.want)
		}
	}
	// Every shard replicates exactly r-1 foreign slices, and the sets are
	// the inverse of the chains.
	for _, r := range []int{1, 2, 3} {
		n := 5
		for s := 0; s < n; s++ {
			boot := BootReplicaPrimaries(s, r, n)
			if len(boot) != r-1 {
				t.Fatalf("BootReplicaPrimaries(%d,%d,%d) = %v, want %d entries", s, r, n, boot, r-1)
			}
			for _, p := range boot {
				chain := ReplicaChain(p, r, n)
				found := false
				for _, m := range chain[1:] {
					found = found || m == s
				}
				if !found {
					t.Fatalf("shard %d claims replica of %d but chain %v omits it", s, p, chain)
				}
			}
		}
	}
}

// TestNodeMountsBootReplicas: every node serves its boot replica slices at
// /replica/<p>/query with exactly the rows the primary slice holds.
func TestNodeMountsBootReplicas(t *testing.T) {
	h := newRepCluster(t, 3, 2, nil)
	ctx := context.Background()
	const q = `SELECT count(*) AS n FROM lineitem`
	for i, node := range h.nodes {
		boot := BootReplicaPrimaries(i, 2, 3)
		if fmt.Sprint(node.ReplicaPrimaries()) != fmt.Sprint(boot) {
			t.Fatalf("node %d mounts %v, want %v", i, node.ReplicaPrimaries(), boot)
		}
		for _, p := range boot {
			_, prim, err := fetchNDJSON(ctx, http.DefaultClient, h.ts[p].URL+"/query", q)
			if err != nil {
				t.Fatalf("primary %d: %v", p, err)
			}
			_, repl, err := fetchNDJSON(ctx, http.DefaultClient,
				fmt.Sprintf("%s/replica/%d/query", h.ts[i].URL, p), q)
			if err != nil {
				t.Fatalf("replica %d on node %d: %v", p, i, err)
			}
			if fmt.Sprint(prim) != fmt.Sprint(repl) {
				t.Fatalf("replica %d on node %d: rows %v, primary has %v", p, i, repl, prim)
			}
		}
	}
	// An unmounted replica id answers 404 — the skip-holder signal.
	resp, err := http.Post(h.ts[0].URL+"/replica/0/query", "application/json",
		nil)
	if err != nil {
		t.Fatalf("unmounted replica: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted replica: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestTransparentFailoverOnNodeDeath is the tentpole contract: kill a node,
// partitioned queries still answer — identically — with failovers recorded
// and no error surfacing to the client.
func TestTransparentFailoverOnNodeDeath(t *testing.T) {
	h := newRepCluster(t, 3, 2, func(c *Config) { c.MaxRetries = 1 })
	ctx := context.Background()
	queries := []string{
		chaosQuery,
		`SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS q FROM lineitem GROUP BY l_returnflag`,
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := h.coord.Query(ctx, q, "")
		if err != nil {
			t.Fatalf("healthy %q: %v", q, err)
		}
		want[i] = res
	}

	h.killNode(2)

	for i, q := range queries {
		res, err := h.coord.Query(ctx, q, "")
		if err != nil {
			t.Fatalf("post-kill %q: %v", q, err)
		}
		if res.Stats.Failovers == 0 {
			t.Fatalf("post-kill %q: no failovers recorded (stats %+v)", q, res.Stats)
		}
		sortRows(res.Rows)
		sortRows(want[i].Rows)
		rowsMatch(t, res.Rows, want[i].Rows)
	}
	if h.coord.failoverSuccess.Load() == 0 || h.coord.failoverAttempts.Load() == 0 {
		t.Fatalf("failover counters not exported: attempts=%d success=%d",
			h.coord.failoverAttempts.Load(), h.coord.failoverSuccess.Load())
	}
}

// TestMidStreamDeathFailsOver: a fragment stream that dies mid-flight (rows
// already received, no trailer) is discarded whole and re-executed on the
// next holder — no double counting, no retry on the dead holder needed.
func TestMidStreamDeathFailsOver(t *testing.T) {
	faultinject.FailOnLeak(t)
	h := newRepCluster(t, 3, 2, func(c *Config) { c.MaxRetries = -1 }) // no same-holder retries
	// A plain select wide enough that fragments stream many rows (the stream
	// fault site fires per 64-row batch).
	const q = `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 10`
	want, err := h.coord.Query(context.Background(), q, "")
	if err != nil {
		t.Fatalf("healthy: %v", err)
	}
	faultinject.Arm(t, "cluster.fragment.stream", faultinject.Fault{Kind: faultinject.Fail, Once: true})
	got, err := h.coord.Query(context.Background(), q, "")
	if err != nil {
		t.Fatalf("mid-stream death: %v", err)
	}
	if got.Stats.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1 (stats %+v)", got.Stats.Failovers, got.Stats)
	}
	sortRows(got.Rows)
	sortRows(want.Rows)
	rowsMatch(t, got.Rows, want.Rows)
}

// TestDoubleFaultIsTypedWithHonestRetryAfter: primary and every replica
// down is the contract's floor — a typed ShardUnavailableError whose
// Retry-After reflects when the prober could actually re-admit a shard.
func TestDoubleFaultIsTypedWithHonestRetryAfter(t *testing.T) {
	const probeInterval = 50 * time.Millisecond
	const probeTimeout = 25 * time.Millisecond
	h := newRepCluster(t, 3, 2, func(c *Config) {
		c.ProbeInterval = probeInterval
		c.ProbeTimeout = probeTimeout
		c.DownAfter = 2
	})
	h.killNode(0)
	h.killNode(1)
	deadline := time.Now().Add(5 * time.Second)
	for h.coord.shards[0].State() != Down || h.coord.shards[1].State() != Down {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked both shards Down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := h.coord.Query(context.Background(), chaosQuery, "")
	var se *ShardUnavailableError
	if !errors.As(err, &se) {
		t.Fatalf("double fault: got %v, want ShardUnavailableError", err)
	}
	if !errors.Is(err, ErrShardUnavailable) || !se.Retryable() {
		t.Fatalf("double fault not typed retryable: %v", err)
	}
	if se.Replicas != 1 {
		t.Fatalf("Replicas = %d, want 1 (the exhausted chain must be visible)", se.Replicas)
	}
	if want := probeInterval + probeTimeout; se.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want the prober recheck horizon %v", se.RetryAfter, want)
	}
}

// TestRereplicationRestoresR: a shard Down past the grace window loses its
// chain memberships to new holders (streamed partition transfer), restoring
// R; its rejoin dismantles exactly the compensating mounts.
func TestRereplicationRestoresR(t *testing.T) {
	h := newRepCluster(t, 3, 2, func(c *Config) {
		c.ProbeInterval = 10 * time.Millisecond
		c.ProbeTimeout = 2 * time.Second // condemn on refusal, not on busy
		c.DownAfter = 2
		c.RereplicateAfter = 30 * time.Millisecond
	})
	ctx := context.Background()
	want, err := h.coord.Query(ctx, chaosQuery, "")
	if err != nil {
		t.Fatalf("healthy: %v", err)
	}
	v0 := h.coord.ring.Version()

	// Shard 1 held primary slice 1 and the replica of slice 0; both must
	// move (slice 0's replica to shard 2, slice 1's data to shard 0).
	h.killNode(1)
	waitFor(t, 10*time.Second, "re-replication to restore R", func() bool {
		return h.coord.rereplications.Load() >= 2
	})
	if got := h.coord.ring.Version(); got <= v0 {
		t.Fatalf("ring version %d not bumped past %d by re-replication", got, v0)
	}
	mounted := func(node *Node, p int) bool {
		for _, m := range node.ReplicaPrimaries() {
			if m == p {
				return true
			}
		}
		return false
	}
	if !mounted(h.nodes[2], 0) || !mounted(h.nodes[0], 1) {
		t.Fatalf("compensating mounts missing: node2=%v node0=%v",
			h.nodes[2].ReplicaPrimaries(), h.nodes[0].ReplicaPrimaries())
	}
	res, err := h.coord.Query(ctx, chaosQuery, "")
	if err != nil {
		t.Fatalf("with R restored: %v", err)
	}
	rowsMatch(t, res.Rows, want.Rows)

	// Rejoin: the shard comes back (fresh boot, new address); the extras
	// are dismantled and placement returns to the boot layout.
	h.restartNode(t, 1)
	waitFor(t, 10*time.Second, "rejoin to dismantle compensating mounts", func() bool {
		return h.coord.restores.Load() >= 2
	})
	h.coord.placementMu.Lock()
	nExtras := len(h.coord.extras)
	h.coord.placementMu.Unlock()
	if nExtras != 0 {
		t.Fatalf("%d extras left after rejoin", nExtras)
	}
	if mounted(h.nodes[2], 0) || mounted(h.nodes[0], 1) {
		t.Fatalf("compensating mounts not unmounted: node2=%v node0=%v",
			h.nodes[2].ReplicaPrimaries(), h.nodes[0].ReplicaPrimaries())
	}
	res, err = h.coord.Query(ctx, chaosQuery, "")
	if err != nil {
		t.Fatalf("after rejoin: %v", err)
	}
	rowsMatch(t, res.Rows, want.Rows)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainDuringFailover: coordinator Drain while a fragment is mid-reroute
// must finish the rerouted fragment or cancel cleanly — no stuck drain-gate
// entries, no leaked admission bytes (run under -race in CI).
func TestDrainDuringFailover(t *testing.T) {
	faultinject.FailOnLeak(t)
	broker := admit.NewBroker(admit.Config{GlobalMem: 64 << 20})
	defer broker.Close()
	h := newRepCluster(t, 2, 2, func(c *Config) {
		c.MaxRetries = -1
		c.Broker = broker
		c.MemBudget = 1 << 20
	})
	// The primary's attempt fails once; the failover attempt stalls long
	// enough for Drain's grace to expire mid-reroute.
	faultinject.Arm(t, "cluster.fragment.connect", faultinject.Fault{Kind: faultinject.Fail, Once: true})
	faultinject.Arm(t, "cluster.fragment.slow", faultinject.Fault{Kind: faultinject.Stall, Stall: 400 * time.Millisecond, After: 1})

	done := make(chan error, 1)
	go func() {
		_, err := h.coord.Query(context.Background(),
			`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 777`, "drain-fo")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the query reach the rerouted attempt
	h.coord.Drain(30 * time.Millisecond)

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrDraining) {
			t.Fatalf("drain during failover: got %v, want nil or ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query stuck after drain: drain-gate entry never released")
	}
	if inUse := broker.InUse(); inUse != 0 {
		t.Fatalf("%d admission bytes leaked across drain", inUse)
	}
	faultinject.Disable("cluster.fragment.connect")
	faultinject.Disable("cluster.fragment.slow")
}

// TestStaleRingVersionRedirected: a node that has seen a newer placement
// rejects the coordinator's stale version with 409; the coordinator adopts
// the version and the retry succeeds — no wrong-slice read, no client error.
func TestStaleRingVersionRedirected(t *testing.T) {
	h := newRepCluster(t, 2, 2, func(c *Config) { c.MaxRetries = 3 })
	want, err := h.coord.Query(context.Background(), chaosQuery, "")
	if err != nil {
		t.Fatalf("healthy: %v", err)
	}
	newer := h.coord.ring.Version() + 3
	h.nodes[0].BumpRingVersion(newer)
	res, err := h.coord.Query(context.Background(), chaosQuery, "")
	if err != nil {
		t.Fatalf("stale ring: %v", err)
	}
	if got := h.coord.ring.Version(); got < newer {
		t.Fatalf("coordinator kept stale version %d, node is at %d", got, newer)
	}
	rowsMatch(t, res.Rows, want.Rows)
	if res.Stats.Retries == 0 {
		t.Fatalf("409 redirect should surface as a retry (stats %+v)", res.Stats)
	}
}

// TestStaleRingRedirectSpendsNoRetry: a 409 stale-ring reply is a redirect,
// not a failure. With no retry budget and no replica to fail over to, the
// coordinator must still adopt the node's version, re-issue once, and get
// rows — without charging the holder's breaker.
func TestStaleRingRedirectSpendsNoRetry(t *testing.T) {
	h := newRepCluster(t, 1, 1, func(c *Config) {
		c.MaxRetries = -1      // no retries at all
		c.BreakerThreshold = 1 // a single charged failure would trip it
	})
	v := h.coord.ring.Version()
	h.nodes[0].BumpRingVersion(v + 1)
	res, err := h.coord.Query(context.Background(), chaosQuery, "")
	if err != nil {
		t.Fatalf("stale ring with MaxRetries 0: %v", err)
	}
	rowsMatch(t, res.Rows, singleNode(t, chaosQuery).Rows)
	if got := h.coord.ring.Version(); got != v+1 {
		t.Fatalf("ring version %d, want the node's %d", got, v+1)
	}
	sh := h.coord.shards[0]
	sh.breaker.mu.Lock()
	fails, trips := sh.breaker.consecFails, sh.breaker.trips
	sh.breaker.mu.Unlock()
	if fails != 0 || trips != 0 || sh.failures.Load() != 0 {
		t.Fatalf("redirect charged the holder: %d breaker failures, %d trips, %d shard failures",
			fails, trips, sh.failures.Load())
	}
	// The re-issue is still a re-dispatch: the query's stats and the
	// /statsz counters must agree that it was one.
	if r := int64(res.Stats.Retries); r == 0 || sh.retries.Load() != r || h.coord.retries.Load() != r {
		t.Fatalf("retry counts disagree: stats %d, shard %d, coordinator %d",
			res.Stats.Retries, sh.retries.Load(), h.coord.retries.Load())
	}
}

// TestChaosGateKillMidQueryStream is the acceptance gate: with R=2, a node
// SIGKILLed in the middle of a stream of partitioned TPC-H queries
// (Q3/Q12-shaped) yields zero client-visible errors, results bit-identical
// to the healthy run, re-replication restores R, and nothing leaks.
func TestChaosGateKillMidQueryStream(t *testing.T) {
	broker := admit.NewBroker(admit.Config{GlobalMem: 256 << 20})
	defer broker.Close()
	h := newRepCluster(t, 3, 2, func(c *Config) {
		c.ProbeInterval = 10 * time.Millisecond
		// Generous probe timeout: a healthy-but-busy node under -race must
		// not be condemned; dead-shard detection rides the fast connection
		// refusal, not the timeout.
		c.ProbeTimeout = 2 * time.Second
		c.DownAfter = 2
		c.RereplicateAfter = 50 * time.Millisecond
		c.MaxRetries = 1
		c.Broker = broker
		c.MemBudget = 1 << 20
	})
	ctx := context.Background()
	queries := []string{
		// Q3-shaped: colocated join, group on the orders side.
		`SELECT o_orderpriority, count(*) AS n FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity < 30 GROUP BY o_orderpriority`,
		// Q12-shaped: colocated join, shipmode filter, group on lineitem.
		`SELECT l_shipmode, count(*) AS n FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND l_shipmode IN ('MAIL', 'SHIP') GROUP BY l_shipmode`,
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		res, err := h.coord.Query(ctx, q, "")
		if err != nil {
			t.Fatalf("healthy %q: %v", q, err)
		}
		sortRows(res.Rows)
		want[q] = fmt.Sprint(res.Rows)
	}

	const workers = 4
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var ok, failedOver int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				res, err := h.coord.Query(ctx, q, fmt.Sprintf("chaos.w%d.i%d", w, i))
				if err != nil {
					errCh <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				sortRows(res.Rows)
				if got := fmt.Sprint(res.Rows); got != want[q] {
					errCh <- fmt.Errorf("worker %d query %d: rows diverged: %s vs %s", w, i, got, want[q])
					return
				}
				mu.Lock()
				ok++
				if res.Stats.Failovers > 0 {
					failedOver++
				}
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond) // let the stream establish
	h.killNode(1)                      // SIGKILL-equivalent: conns reset, addr refuses
	time.Sleep(1 * time.Second)        // stream continues across the fault
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("client-visible error during chaos: %v", err)
	default:
	}
	if ok == 0 || failedOver == 0 {
		t.Fatalf("chaos stream too quiet: %d ok, %d failed over", ok, failedOver)
	}
	waitFor(t, 10*time.Second, "R restored after kill", func() bool {
		return h.coord.rereplications.Load() >= 2
	})
	if inUse := broker.InUse(); inUse != 0 {
		t.Fatalf("%d admission bytes leaked", inUse)
	}
	t.Logf("chaos gate: %d queries ok, %d failed over transparently, %d re-replications",
		ok, failedOver, h.coord.rereplications.Load())
}
