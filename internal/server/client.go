package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is the Go client of the query service, used by sqlrun -server, the
// benchmark's serve workloads and tests. It is safe for concurrent use;
// Session, when set, rides along on every query.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:7432".
	Base string
	// HTTP is the transport (nil uses http.DefaultClient).
	HTTP *http.Client
	// Session, when non-empty, is sent with every query.
	Session string
	// QueryID, when non-empty, is sent as X-Query-ID with every query so
	// server logs, error bodies, and stream trailers carry the caller's
	// trace id instead of a server-minted one.
	QueryID string
}

func (c *Client) hc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// RemoteError is any non-2xx response: the mapped status, the server's
// message, and — for 429/503 — the suggested backoff.
type RemoteError struct {
	Status     int
	QueryID    string
	Message    string
	RetryAfter time.Duration
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s (query %s)", e.Status, e.Message, e.QueryID)
}

// Overloaded reports whether the server shed the query and retrying after
// RetryAfter is the contract.
func (e *RemoteError) Overloaded() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// DecodeError decodes a non-2xx response of a query surface: the error
// envelope, with retry_after_ms as the exact backoff and the whole-second
// Retry-After header as the fallback.
func DecodeError(resp *http.Response) *RemoteError {
	e := &RemoteError{Status: resp.StatusCode, QueryID: resp.Header.Get("X-Query-ID")}
	var body errorBody
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body) == nil {
		e.Message = body.Error
		if body.QueryID != "" {
			e.QueryID = body.QueryID
		}
		if body.RetryAfterMS > 0 {
			e.RetryAfter = time.Duration(body.RetryAfterMS) * time.Millisecond
		}
	}
	if e.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	if e.Message == "" {
		e.Message = resp.Status
	}
	return e
}

// NewSession creates a server-side session with the given defaults and
// stores its id on the client.
func (c *Client) NewSession(ctx context.Context, d SessionDefaults) (string, error) {
	b, _ := json.Marshal(d)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/session", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", DecodeError(resp)
	}
	var sr sessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", fmt.Errorf("server: bad session response: %w", err)
	}
	c.Session = sr.Session
	return sr.Session, nil
}

// EndSession deletes the client's session on the server.
func (c *Client) EndSession(ctx context.Context) error {
	if c.Session == "" {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.Base+"/session/"+c.Session, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.Session = ""
	if resp.StatusCode != http.StatusNoContent {
		return DecodeError(resp)
	}
	return nil
}

// QueryResult is a fully collected response.
type QueryResult struct {
	QueryID  string     `json:"query_id"`
	Cols     []ColMeta  `json:"cols"`
	Rows     [][]any    `json:"rows"`
	RowCount int        `json:"row_count"`
	Stats    queryStats `json:"stats"`
	// ResultCache echoes the X-Result-Cache response header: "hit" when
	// the rows were replayed from the server's result cache, "miss" when
	// this execution filled it, "" when the cache was bypassed.
	ResultCache string `json:"-"`
}

// CacheHit reports whether the server executed a cached plan.
func (r *QueryResult) CacheHit() bool { return r.Stats.PlanCache == "hit" }

// ResultCacheHit reports whether the rows came from the result cache.
func (r *QueryResult) ResultCacheHit() bool { return r.ResultCache == "hit" }

// Query executes one statement and collects the whole result.
func (c *Client) Query(ctx context.Context, sqlText string) (*QueryResult, error) {
	resp, err := c.post(ctx, sqlText, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, DecodeError(resp)
	}
	var qr QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, fmt.Errorf("server: bad query response: %w", err)
	}
	qr.ResultCache = resp.Header.Get("X-Result-Cache")
	return &qr, nil
}

// StreamTrailer is the last NDJSON line.
type StreamTrailer struct {
	QueryID  string     `json:"query_id"`
	RowCount int        `json:"row_count"`
	Stats    queryStats `json:"stats"`
}

// QueryStream executes one statement and feeds each row to fn as it
// arrives. Returning an error from fn (or cancelling ctx) abandons the
// stream — the server notices the disconnect and releases the query's
// admission reservation. The trailer is returned once the stream completes.
func (c *Client) QueryStream(ctx context.Context, sqlText string, fn func(row []any) error) (*StreamTrailer, error) {
	resp, err := c.post(ctx, sqlText, true)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, DecodeError(resp)
	}
	var hdr StreamHeader
	var tr StreamTrailer
	err = ReadStream(resp.Body, &hdr, func(line []byte) error {
		var row []any
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("%w: row: %v", ErrBadStream, err)
		}
		return fn(row)
	}, &tr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &tr, nil
}

// post issues the query request.
func (c *Client) post(ctx context.Context, sqlText string, stream bool) (*http.Response, error) {
	b, _ := json.Marshal(QueryRequest{SQL: sqlText, Session: c.Session, Stream: stream})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/query", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.QueryID != "" {
		req.Header.Set("X-Query-ID", c.QueryID)
	}
	if stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	return c.hc().Do(req)
}

// Healthz probes the health endpoint; it returns nil while the server is
// accepting queries.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Statsz fetches the server's stats snapshot.
func (c *Client) Statsz(ctx context.Context) (*ServerStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, DecodeError(resp)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("server: bad statsz response: %w", err)
	}
	return &st, nil
}
