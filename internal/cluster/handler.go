package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"partitionjoin/internal/plan"
	"partitionjoin/internal/server"
)

// The coordinator serves through internal/server's query edge — the same
// /query request body, error envelope, status mapping, row writers and
// drain gate as a single node — so server.Client, sqlrun -server and the
// benchmark drive either interchangeably. What stays here is
// cluster-specific: ShardUnavailableError's status and backoff, the shard
// list in /healthz, and the /statsz counters.

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// handleQuery is POST /query on the coordinator. Drain participation is
// Query's, so embedded callers share it.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	c.edge.Total.Add(1)
	qid := server.QueryID(r.Header.Get("X-Query-ID"), "c", &c.queryID)
	w.Header().Set("X-Query-ID", qid)
	req, err := server.ReadQuery(r)
	if err != nil {
		c.edge.WriteError(w, qid, http.StatusBadRequest, 0, err)
		return
	}
	res, err := c.query(r.Context(), req.SQL, qid)
	if err != nil {
		status, retryAfter := server.Status(err, r.Context().Err() != nil)
		var se *ShardUnavailableError
		switch {
		case errors.As(err, &se):
			status, retryAfter = http.StatusServiceUnavailable, se.RetryAfter
		case isBadQuery(err):
			status = http.StatusBadRequest
		}
		c.edge.WriteError(w, qid, status, retryAfter, err)
		return
	}
	c.edge.OK.Add(1)
	if req.Stream {
		c.edge.StreamRows(r.Context(), w, qid, res.Cols, len(res.Rows),
			func(i int, dst []any) { copy(dst, res.Rows[i]) }, res.Stats)
	} else {
		server.WriteDoc(w, qid, res.Cols, res.Rows, res.Stats)
	}
}

// isBadQuery detects statement errors (parse failures, unknown tables or
// columns) that no retry will fix.
func isBadQuery(err error) bool {
	msg := err.Error()
	return strings.HasPrefix(msg, "sql:") ||
		strings.HasPrefix(msg, "cluster: unknown table") ||
		strings.HasPrefix(msg, "cluster: unknown column") ||
		strings.HasPrefix(msg, "cluster: unknown alias") ||
		strings.HasPrefix(msg, "cluster: ambiguous column") ||
		strings.HasPrefix(msg, "cluster: duplicate alias")
}

// handleHealthz reports liveness; like the server's, it flips to 503 the
// moment a drain starts. The body carries the shard fleet's health.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := make([]string, len(c.shards))
	for i, sh := range c.shards {
		states[i] = sh.State().String()
	}
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if c.edge.Draining() {
		status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Status string   `json:"status"`
		Shards []string `json:"shards"`
	}{status, states})
}

// ShardStats is one shard's /statsz block: routing counters plus the live
// breaker and prober verdicts, so an operator (or sqlrun -retry) can see
// exactly why fragments are avoiding a shard.
type ShardStats struct {
	Addr            string `json:"addr"`
	State           string `json:"state"`
	BreakerOpen     bool   `json:"breaker_open"`
	ProbeFails      int    `json:"probe_fails"`
	Fragments       int64  `json:"fragments"`
	Retries         int64  `json:"retries"`
	Failures        int64  `json:"failures"`
	Trips           int64  `json:"breaker_trips"`
	FailoversServed int64  `json:"failovers_served"`
}

// CoordStats is the /statsz snapshot.
type CoordStats struct {
	Queries          int64            `json:"queries"`
	OK               int64            `json:"ok"`
	BadRequest       int64            `json:"bad_request"`
	Unavailable      int64            `json:"unavailable"`
	Overloaded       int64            `json:"overloaded"`
	Timeout          int64            `json:"timeout"`
	Canceled         int64            `json:"canceled"`
	Stalled          int64            `json:"stalled"`
	Internal         int64            `json:"internal"`
	Retries          int64            `json:"fragment_retries"`
	GatheredRows     int64            `json:"gathered_rows"`
	RingVersion      int64            `json:"ring_version"`
	Replication      int              `json:"replication"`
	FailoverAttempts int64            `json:"failover_attempts"`
	FailoverSuccess  int64            `json:"failover_success"`
	Reroutes         int64            `json:"reroutes"`
	Rereplications   int64            `json:"rereplications"`
	Restores         int64            `json:"restores"`
	Modes            map[string]int64 `json:"modes"`
	Shards           []ShardStats     `json:"shards"`
}

// handleStatsz exports the coordinator counters.
func (c *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := c.Statsz()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// Statsz snapshots the coordinator counters — the same picture /statsz
// serves, for in-process harnesses.
func (c *Coordinator) Statsz() CoordStats {
	st := CoordStats{
		Queries:          c.edge.Total.Load(),
		OK:               c.edge.OK.Load(),
		BadRequest:       c.edge.BadRequest.Load(),
		Unavailable:      c.edge.Unavailable.Load(),
		Overloaded:       c.edge.Overloaded.Load(),
		Timeout:          c.edge.Timeout.Load(),
		Canceled:         c.edge.Canceled.Load(),
		Stalled:          c.edge.Stalled.Load(),
		Internal:         c.edge.Internal.Load(),
		Retries:          c.retries.Load(),
		GatheredRows:     c.gatheredRows.Load(),
		RingVersion:      c.ring.Version(),
		Replication:      c.cfg.Replication,
		FailoverAttempts: c.failoverAttempts.Load(),
		FailoverSuccess:  c.failoverSuccess.Load(),
		Reroutes:         c.reroutes.Load(),
		Rereplications:   c.rereplications.Load(),
		Restores:         c.restores.Load(),
		Modes: map[string]int64{
			string(ModeReplicated): c.modeCounts[0].Load(),
			string(ModeColocated):  c.modeCounts[1].Load(),
			string(ModeRouted):     c.modeCounts[2].Load(),
			string(ModeGather):     c.modeCounts[3].Load(),
		},
	}
	now := time.Now()
	for _, sh := range c.shards {
		sh.breaker.mu.Lock()
		trips := sh.breaker.trips
		sh.breaker.mu.Unlock()
		sh.mu.Lock()
		probeFails := sh.probeFails
		sh.mu.Unlock()
		st.Shards = append(st.Shards, ShardStats{
			Addr: sh.Addr(), State: sh.State().String(),
			BreakerOpen: sh.breaker.open(now), ProbeFails: probeFails,
			Fragments: sh.fragments.Load(), Retries: sh.retries.Load(),
			Failures: sh.failures.Load(), Trips: trips,
			FailoversServed: sh.failoversServed.Load(),
		})
	}
	return st
}

// execToResult converts a local ExecResult (the gather path's output) into
// the coordinator's result shape.
func execToResult(res *plan.ExecResult) *Result {
	out := &Result{Cols: make([]ColMeta, len(res.Cols)), Rows: server.ResultRows(res.Result)}
	for i, cr := range res.Cols {
		out.Cols[i] = ColMeta{Name: cr.Name, Type: res.Result.Vecs[i].T.String()}
	}
	return out
}
