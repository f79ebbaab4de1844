package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partitionjoin/internal/admit"
)

// The query edge is the HTTP wire dialect of every query surface — this
// package's Server and the cluster coordinator alike: the /query request
// body, the error envelope and the status each error maps to, query ids,
// the JSON document and NDJSON stream framings (written here, read by
// ReadStream), and the drain gate. Surfaces call these pieces directly, so
// the dialect is decided in this file only.

// StatusClientClosedRequest is the nginx-convention status for "the client
// went away before the response"; it can never reach that client, but it is
// what the access log and the error counters record.
const StatusClientClosedRequest = 499

// ErrDraining is a draining surface's refusal of new queries and the cancel
// cause of the queries still running when its drain grace expires.
var ErrDraining = errors.New("server: draining")

// drainRetryAfter is the backoff a 503 suggests: a draining node is going
// away, and a retry a second later lands on its replacement or a peer.
const drainRetryAfter = time.Second

// QueryRequest is the POST /query body.
type QueryRequest struct {
	SQL     string `json:"sql"`
	Session string `json:"session,omitempty"`
	// Overrides (optional; session defaults, then server defaults apply).
	MemBudget int64 `json:"mem_budget,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Stream    bool  `json:"stream,omitempty"`
}

// ReadQuery decodes a POST /query body (bounded to 1 MiB) that must carry
// SQL. An Accept of application/x-ndjson asks for a stream as "stream" does.
func ReadQuery(r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	if strings.TrimSpace(req.SQL) == "" {
		return req, errors.New("empty sql")
	}
	req.Stream = req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	return req, nil
}

// QueryID names a query: the caller's id (a coordinator's fragment id, a
// client's trace id) kept to printable ASCII and 64 bytes, so one id
// follows the query through every log line, error body and stream
// trailer; otherwise prefix and the next number of seq. seq advances
// either way, so it counts every query.
func QueryID(supplied, prefix string, seq *atomic.Int64) string {
	n := seq.Add(1)
	if len(supplied) > 64 {
		supplied = supplied[:64]
	}
	var b strings.Builder
	for _, r := range supplied {
		if r > 0x20 && r < 0x7f {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return prefix + strconv.FormatInt(n, 10)
	}
	return b.String()
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error        string `json:"error"`
	QueryID      string `json:"query_id,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Status maps a query error onto its HTTP status and, for the statuses a
// retry can clear, the backoff to suggest. reqDone attributes a generic
// cancellation: a dead request context means the client went away (499);
// otherwise the surface cancelled it.
func Status(err error, reqDone bool) (int, time.Duration) {
	var oe *admit.OverloadError
	switch {
	case errors.As(err, &oe):
		return http.StatusTooManyRequests, oe.RetryAfter
	case errors.Is(err, admit.ErrOverloaded):
		return http.StatusTooManyRequests, 0
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, 0
	case errors.Is(err, admit.ErrStalled):
		return http.StatusInternalServerError, 0
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, drainRetryAfter
	case errors.Is(err, context.Canceled):
		if reqDone {
			return StatusClientClosedRequest, 0
		}
		return http.StatusServiceUnavailable, drainRetryAfter
	default:
		return http.StatusInternalServerError, 0
	}
}

// Outcomes counts a surface's queries by the status the edge answered
// them with.
type Outcomes struct {
	Total, OK, BadRequest, Overloaded, Unavailable atomic.Int64
	Timeout, Canceled, Stalled, Internal           atomic.Int64
}

// count records one error response.
func (o *Outcomes) count(status int, err error) {
	switch {
	case status == http.StatusBadRequest:
		o.BadRequest.Add(1)
	case status == http.StatusTooManyRequests:
		o.Overloaded.Add(1)
	case status == http.StatusServiceUnavailable:
		o.Unavailable.Add(1)
	case status == http.StatusRequestTimeout:
		o.Timeout.Add(1)
	case status == StatusClientClosedRequest:
		o.Canceled.Add(1)
	case status >= 400 && status < 500:
		// Any other client-caused failure, such as an unknown session (404).
		o.BadRequest.Add(1)
	case errors.Is(err, admit.ErrStalled):
		o.Stalled.Add(1)
	default:
		o.Internal.Add(1)
	}
}

// Edge is one query surface's HTTP edge: its drain gate, its outcome
// counters, and the writers that answer with errors and rows.
type Edge struct {
	Outcomes
	chunk int // rows between stream flushes and cancellation checks

	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // closed when draining && inflight == 0

	ctx    context.Context // cancelled to hard-stop in-flight queries
	cancel context.CancelCauseFunc
}

// NewEdge builds an edge whose streams flush and check for cancellation
// every streamChunk rows (<= 0 uses 256).
func NewEdge(streamChunk int) *Edge {
	if streamChunk <= 0 {
		streamChunk = 256
	}
	e := &Edge{chunk: streamChunk, idle: make(chan struct{})}
	e.ctx, e.cancel = context.WithCancelCause(context.Background())
	return e
}

// Context is the surface's base context. It ends, with ErrDraining as the
// cause, when a drain cancels its stragglers or completes, so background
// loops stop on it.
func (e *Edge) Context() context.Context { return e.ctx }

// Draining reports whether a drain has begun.
func (e *Edge) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Enter admits a query through the drain gate, or refuses it with
// ErrDraining once a drain has begun. An admitted query runs under the
// returned context, which also ends with the drain's cause when the grace
// expires, and must call done when it has answered.
func (e *Edge) Enter(ctx context.Context) (qctx context.Context, done func(), err error) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, nil, ErrDraining
	}
	e.inflight++
	e.mu.Unlock()
	qctx, cancel := context.WithCancelCause(ctx)
	stop := context.AfterFunc(e.ctx, func() { cancel(context.Cause(e.ctx)) })
	return qctx, func() {
		stop()
		cancel(nil)
		e.mu.Lock()
		e.inflight--
		if e.draining && e.inflight == 0 {
			close(e.idle)
		}
		e.mu.Unlock()
	}, nil
}

// Drain closes the gate: new queries are refused, in-flight ones may
// finish within grace, and any still running after that are cancelled
// with ErrDraining as the cause. It returns once the last admitted query
// is done, true when all finished inside the grace window (a clean
// drain); it is idempotent.
func (e *Edge) Drain(grace time.Duration) bool {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		if e.inflight == 0 {
			close(e.idle)
		}
	}
	e.mu.Unlock()
	clean := true
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-e.idle:
	case <-timer.C:
		clean = false
		e.cancel(ErrDraining)
		<-e.idle
	}
	e.cancel(ErrDraining)
	return clean
}

// WriteError answers with the JSON error envelope and counts the outcome.
// A positive retryAfter rides along exactly as retry_after_ms and rounded
// up to whole seconds as Retry-After.
func (e *Edge) WriteError(w http.ResponseWriter, qid string, status int, retryAfter time.Duration, err error) {
	body := errorBody{Error: err.Error(), QueryID: qid}
	if retryAfter > 0 {
		body.RetryAfterMS = retryAfter.Milliseconds()
		secs := (retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	e.count(status, err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// ColMeta describes one result column on the wire.
type ColMeta struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// StreamHeader is the first NDJSON line of a streamed result.
type StreamHeader struct {
	QueryID string    `json:"query_id"`
	Cols    []ColMeta `json:"cols"`
}

// WriteDoc answers with the whole result as one JSON document.
func WriteDoc(w http.ResponseWriter, qid string, cols []ColMeta, rows [][]any, stats any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		QueryID  string    `json:"query_id"`
		Cols     []ColMeta `json:"cols"`
		Rows     [][]any   `json:"rows"`
		RowCount int       `json:"row_count"`
		Stats    any       `json:"stats"`
	}{qid, cols, rows, len(rows), stats})
}

// StreamRows answers with n rows as NDJSON: a header object, one JSON
// array per row (row sets dst to row i), then a trailer object with the
// row count and stats. Rows go out in chunks with a flush and a
// cancellation check between chunks, so a client that went away stops the
// stream within one chunk.
func (e *Edge) StreamRows(ctx context.Context, w http.ResponseWriter, qid string, cols []ColMeta, n int, row func(i int, dst []any), stats any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if enc.Encode(StreamHeader{QueryID: qid, Cols: cols}) != nil {
		return
	}
	dst := make([]any, len(cols))
	for i := 0; i < n; i++ {
		row(i, dst)
		if enc.Encode(dst) != nil {
			return // client went away; the handler unwinds
		}
		if (i+1)%e.chunk == 0 {
			if flusher != nil {
				flusher.Flush()
			}
			if ctx.Err() != nil {
				e.Canceled.Add(1)
				return
			}
		}
	}
	enc.Encode(struct {
		QueryID  string `json:"query_id"`
		RowCount int    `json:"row_count"`
		Stats    any    `json:"stats"`
	}{qid, n, stats})
	if flusher != nil {
		flusher.Flush()
	}
}

// ErrBadStream marks a result stream that arrived whole but does not
// decode: a peer's bug, which no retry fixes, unlike a stream cut short.
var ErrBadStream = errors.New("malformed result stream")

// ReadStream reads an NDJSON result: it decodes the header line into hdr,
// hands each row line to row (whose error ends the read and is returned
// as is), and decodes the trailer object into tr (nil skips it). A stream
// that ends before its trailer is an error: its rows cannot be trusted
// complete.
func ReadStream(r io.Reader, hdr *StreamHeader, row func(line []byte) error, tr *StreamTrailer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sc.Split(wholeLines)
	if !sc.Scan() {
		return fmt.Errorf("empty stream: %w", cmp.Or(sc.Err(), io.ErrUnexpectedEOF))
	}
	if err := json.Unmarshal(sc.Bytes(), hdr); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadStream, err)
	}
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
		case line[0] != '{':
			if err := row(line); err != nil {
				return err
			}
		case tr == nil:
			return nil
		default:
			if err := json.Unmarshal(line, tr); err != nil {
				return fmt.Errorf("%w: trailer: %v", ErrBadStream, err)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("mid-stream: %w", err)
	}
	return fmt.Errorf("stream ended without trailer (query %s)", hdr.QueryID)
}

// wholeLines splits a stream into '\n'-terminated lines. Unlike
// bufio.ScanLines it never returns an unterminated last line: a stream cut
// mid-row ends in io.ErrUnexpectedEOF (or the read error that cut it),
// never in half a row handed to the caller as if it were malformed.
func wholeLines(data []byte, atEOF bool) (advance int, line []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return 0, nil, nil
}
