package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/storage"
)

// The coordinator speaks the exact wire dialect of internal/server — the
// same /query request body, NDJSON stream shape, and error envelope — so
// server.Client, sqlrun -server and the benchmark's cluster_fabric workload
// drive a coordinator and a single node interchangeably.

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// StatusClientClosedRequest mirrors the server's nginx-style 499.
const StatusClientClosedRequest = 499

// coordRequest is the accepted subset of the server's query body.
type coordRequest struct {
	SQL    string `json:"sql"`
	Stream bool   `json:"stream,omitempty"`
}

// coordErrorBody mirrors the server's error envelope.
type coordErrorBody struct {
	Error        string `json:"error"`
	QueryID      string `json:"query_id,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// writeError emits the JSON error envelope, with Retry-After for the
// retryable statuses, and counts it.
func (c *Coordinator) writeError(w http.ResponseWriter, qid string, status int, err error) {
	body := coordErrorBody{Error: err.Error(), QueryID: qid}
	var retryAfter int64
	var se *ShardUnavailableError
	var oe *admit.OverloadError
	switch {
	case errors.As(err, &se):
		retryAfter = se.RetryAfter.Milliseconds()
	case errors.As(err, &oe):
		retryAfter = oe.RetryAfter.Milliseconds()
	}
	if retryAfter > 0 {
		body.RetryAfterMS = retryAfter
		secs := (retryAfter + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	switch status {
	case http.StatusBadRequest:
		c.counters.BadRequest.Add(1)
	case http.StatusTooManyRequests:
		c.counters.Overloaded.Add(1)
	case http.StatusServiceUnavailable:
		c.counters.Unavailable.Add(1)
	case http.StatusRequestTimeout:
		c.counters.Timeout.Add(1)
	case StatusClientClosedRequest:
		c.counters.Canceled.Add(1)
	default:
		c.counters.Internal.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// coordStatus maps a distributed execution error onto its HTTP status.
func coordStatus(err error, reqDone bool) int {
	switch {
	case errors.Is(err, ErrShardUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, admit.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		if reqDone {
			return StatusClientClosedRequest
		}
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// sanitizeQID keeps a caller-supplied query id loggable: printable ASCII,
// bounded length.
func sanitizeQID(s string) string {
	if len(s) > 64 {
		s = s[:64]
	}
	var b strings.Builder
	for _, r := range s {
		if r > 0x20 && r < 0x7f {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// handleQuery is POST /query on the coordinator.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !c.enter() {
		w.Header().Set("Retry-After", "1")
		c.writeError(w, "", http.StatusServiceUnavailable, errors.New("coordinator is draining"))
		return
	}
	defer c.leave()
	c.counters.Total.Add(1)

	qid := sanitizeQID(r.Header.Get("X-Query-ID"))
	if qid == "" {
		qid = fmt.Sprintf("c%d", c.queryID.Add(1))
	}
	w.Header().Set("X-Query-ID", qid)

	var req coordRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		c.writeError(w, qid, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		c.writeError(w, qid, http.StatusBadRequest, errors.New("empty sql"))
		return
	}
	stream := req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")

	qctx, qcancel := context.WithCancelCause(r.Context())
	defer qcancel(nil)
	stopDrainWatch := context.AfterFunc(c.baseCtx, func() {
		qcancel(context.Cause(c.baseCtx))
	})
	defer stopDrainWatch()

	res, err := c.Query(qctx, req.SQL, qid)
	if err != nil {
		status := coordStatus(err, r.Context().Err() != nil)
		if isBadQuery(err) {
			status = http.StatusBadRequest
		}
		c.writeError(w, qid, status, err)
		return
	}
	c.counters.OK.Add(1)
	if stream {
		c.streamResult(w, res)
	} else {
		c.writeResult(w, res)
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

// writeResult delivers the merged result as one JSON document, in the
// server's response shape with the cluster stats block.
func (c *Coordinator) writeResult(w http.ResponseWriter, res *Result) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		QueryID  string    `json:"query_id"`
		Cols     []ColMeta `json:"cols"`
		Rows     [][]any   `json:"rows"`
		RowCount int       `json:"row_count"`
		Stats    Stats     `json:"stats"`
	}{res.QueryID, res.Cols, res.Rows, len(res.Rows), res.Stats})
}

// streamResult delivers the merged result as NDJSON: header, rows, trailer.
func (c *Coordinator) streamResult(w http.ResponseWriter, res *Result) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		QueryID string    `json:"query_id"`
		Cols    []ColMeta `json:"cols"`
	}{res.QueryID, res.Cols}); err != nil {
		return
	}
	for _, row := range res.Rows {
		if err := enc.Encode(row); err != nil {
			return
		}
	}
	enc.Encode(struct {
		QueryID  string `json:"query_id"`
		RowCount int    `json:"row_count"`
		Stats    Stats  `json:"stats"`
	}{res.QueryID, len(res.Rows), res.Stats})
	if flusher != nil {
		flusher.Flush()
	}
}

// handleHealthz reports liveness; like the server's, it flips to 503 the
// moment a drain starts. The body carries the shard fleet's health.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	states := make([]string, len(c.shards))
	for i, sh := range c.shards {
		states[i] = sh.State().String()
	}
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if draining {
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
		Queries:          c.counters.Total.Load(),
		OK:               c.counters.OK.Load(),
		BadRequest:       c.counters.BadRequest.Load(),
		Unavailable:      c.counters.Unavailable.Load(),
		Overloaded:       c.counters.Overloaded.Load(),
		Timeout:          c.counters.Timeout.Load(),
		Canceled:         c.counters.Canceled.Load(),
		Internal:         c.counters.Internal.Load(),
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
	n := res.Result.NumRows()
	out := &Result{
		Cols: make([]ColMeta, len(res.Cols)),
		Rows: make([][]any, n),
	}
	for i, cr := range res.Cols {
		out.Cols[i] = ColMeta{Name: cr.Name, Type: res.Result.Vecs[i].T.String()}
	}
	for i := 0; i < n; i++ {
		row := make([]any, len(res.Result.Vecs))
		for ci := range res.Result.Vecs {
			row[ci] = vecValue(&res.Result.Vecs[ci], i)
		}
		out.Rows[i] = row
	}
	return out
}

// vecValue extracts row i of a vector as a wire value.
func vecValue(v *exec.Vector, i int) any {
	switch v.T {
	case storage.Float64:
		return v.F64[i]
	case storage.String:
		return string(v.Str[i])
	default:
		return v.I64[i]
	}
}
