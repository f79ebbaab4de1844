package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HealthState is the shard state machine the prober drives. Fragments still
// try a Degraded shard (it may only have dropped one probe); a Down shard is
// skipped outright and partitioned fragments against it fail fast with
// ErrShardUnavailable.
type HealthState int32

const (
	// Up: last probe succeeded.
	Up HealthState = iota
	// Degraded: at least one recent probe failed, but fewer than the
	// down threshold — the shard gets traffic but routing prefers others
	// where a choice exists.
	Degraded
	// Down: consecutive probe failures reached the threshold. No traffic
	// until a probe succeeds again.
	Down
)

// String names the state for /statsz and logs.
func (s HealthState) String() string {
	switch s {
	case Up:
		return "up"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	}
	return fmt.Sprintf("HealthState(%d)", int32(s))
}

// ErrShardUnavailable is the sentinel for errors.Is: a shard could not serve
// a fragment and retrying the whole query after a backoff is the contract
// (the HTTP layer maps it to 503 + Retry-After).
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// ShardUnavailableError is the typed, retryable failure of a fragment whose
// owning shard is dead, unreachable, persistently slow, or circuit-broken —
// and, under replication, so is every replica in its chain (the
// double-fault).
type ShardUnavailableError struct {
	Shard    int
	Addr     string
	Attempts int
	// Replicas is how many fallback holders the failover chain offered
	// beyond the primary; > 0 means the whole chain was exhausted.
	Replicas int
	// RetryAfter is the suggested client backoff before resubmitting the
	// query. It is honest: with the prober running it is the time by which
	// a recovered shard would be re-marked reachable (one probe round plus
	// its timeout); otherwise the breaker cooloff.
	RetryAfter time.Duration
	Err        error
}

// Error implements error.
func (e *ShardUnavailableError) Error() string {
	if e.Replicas > 0 {
		return fmt.Sprintf("cluster: shard %d (%s) and all %d replicas unavailable after %d attempts: %v",
			e.Shard, e.Addr, e.Replicas, e.Attempts, e.Err)
	}
	return fmt.Sprintf("cluster: shard %d (%s) unavailable after %d attempts: %v",
		e.Shard, e.Addr, e.Attempts, e.Err)
}

// Unwrap exposes the last underlying failure.
func (e *ShardUnavailableError) Unwrap() error { return e.Err }

// Is matches the ErrShardUnavailable sentinel.
func (e *ShardUnavailableError) Is(target error) bool { return target == ErrShardUnavailable }

// Retryable reports that resubmitting the query after RetryAfter is safe:
// fragments are read-only and idempotent.
func (e *ShardUnavailableError) Retryable() bool { return true }

// breaker is a per-shard circuit breaker. Threshold consecutive fragment
// failures open it for Cooloff; while open, fragments fail fast instead of
// burning their retry budget against a dead shard. After the cooloff one
// attempt is let through (half-open); success closes the breaker.
type breaker struct {
	mu          sync.Mutex
	threshold   int
	cooloff     time.Duration
	consecFails int
	openUntil   time.Time
	trips       int64
}

// allow reports whether an attempt may proceed now.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.After(b.openUntil)
}

// fail records a fragment failure, tripping the breaker at the threshold.
func (b *breaker) fail(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.consecFails >= b.threshold {
		b.openUntil = now.Add(b.cooloff)
		b.trips++
		// Half-open: the cooloff expiry admits one probe attempt; a
		// further failure re-opens from here rather than needing a full
		// threshold run.
		b.consecFails = b.threshold - 1
	}
}

// ok records a success, closing the breaker.
func (b *breaker) ok() {
	b.mu.Lock()
	b.consecFails = 0
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

// open reports whether the breaker currently blocks attempts.
func (b *breaker) open(now time.Time) bool { return !b.allow(now) }

// shard is the coordinator's view of one node: its address (mutable — a
// restarted shard comes back elsewhere), health, breaker, and counters.
type shard struct {
	id int

	mu       sync.Mutex
	addr     string
	prevAddr string // the address before the last SetShardAddr; stale-ring faults route here

	state      atomic.Int32 // HealthState
	probeFails int          // consecutive, prober-owned
	downSince  time.Time    // when the prober marked it Down; zero while reachable

	breaker breaker

	fragments       atomic.Int64 // attempts issued
	retries         atomic.Int64 // attempts beyond the first
	failures        atomic.Int64 // fragments that exhausted retries
	failoversServed atomic.Int64 // fragments served here after another holder failed
}

// Addr returns the shard's current address.
func (s *shard) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// State returns the prober's current verdict.
func (s *shard) State() HealthState { return HealthState(s.state.Load()) }

// available reports whether the router may send fragments here.
func (s *shard) available(now time.Time) bool {
	return s.State() != Down && !s.breaker.open(now)
}

// SetShardAddr moves a shard to a new address — the rebalance/restart path.
// The health state resets to Degraded (unproven), the breaker closes so the
// new address gets a fair first attempt, and the ring version bumps so
// staleness is observable.
func (c *Coordinator) SetShardAddr(id int, addr string) error {
	if id < 0 || id >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", id)
	}
	sh := c.shards[id]
	sh.mu.Lock()
	sh.prevAddr = sh.addr
	sh.addr = addr
	sh.probeFails = 0
	sh.downSince = time.Time{}
	sh.mu.Unlock()
	sh.state.Store(int32(Degraded))
	sh.breaker.ok()
	c.ring.mu.Lock()
	c.ring.version++
	c.ring.mu.Unlock()
	return nil
}

// probe checks one shard's /healthz once and advances its state machine.
func (c *Coordinator) probe(ctx context.Context, sh *shard) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, sh.Addr()+"/healthz", nil)
	healthy := false
	if err == nil {
		resp, rerr := c.httpClient().Do(req)
		if rerr == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
		}
	}
	sh.mu.Lock()
	if healthy {
		sh.probeFails = 0
	} else {
		sh.probeFails++
	}
	fails := sh.probeFails
	switch {
	case fails == 0:
		sh.downSince = time.Time{}
		sh.mu.Unlock()
		sh.state.Store(int32(Up))
	case fails >= c.cfg.DownAfter:
		if sh.downSince.IsZero() {
			sh.downSince = time.Now()
		}
		sh.mu.Unlock()
		sh.state.Store(int32(Down))
	default:
		sh.mu.Unlock()
		sh.state.Store(int32(Degraded))
	}
}

// prober drives all shard state machines until the coordinator drains.
func (c *Coordinator) prober() {
	defer c.bg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.edge.Context().Done():
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, sh := range c.shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				c.probe(c.edge.Context(), sh)
			}(sh)
		}
		wg.Wait()
		// Membership follow-up rides the probe round: a shard Down past the
		// grace window loses its replicas to new holders (restoring R); one
		// back Up gets the compensating mounts dismantled.
		c.rereplicateCheck(c.edge.Context())
		c.restoreCheck(c.edge.Context())
	}
}
