package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/server"
	"partitionjoin/internal/storage"
)

// Fault sites of the inter-node fabric, armable by tests and by joind
// -inject: a refused connection, a mid-stream hangup, a shard slow enough
// to trip the fragment deadline, and a router acting on a stale ring after
// a rebalance.
var _ = faultinject.Register(
	"cluster.fragment.connect",
	"cluster.fragment.stream",
	"cluster.fragment.slow",
	"cluster.ring.stale",
)

// fragResult is one fragment's fully collected rows. Values are decoded by
// declared column type: INT64/INT32/DATE/BOOL → int64, FLOAT64 → float64,
// STRING → string (json.Number parsing, so 64-bit keys survive).
type fragResult struct {
	shard      *shard
	cols       []ColMeta
	rows       [][]any
	tries      int
	failedOver bool // completed on a holder other than the primary
}

// holder is one place a fragment's rows can be read: a shard plus the URL
// path prefix selecting the right catalog on it — "" for the shard's own
// primary slice, "/replica/<p>" for a replica it hosts.
type holder struct {
	sh   *shard
	path string
}

// fragTarget is one fragment's full failover chain: the primary slice id
// and every holder that can serve it, in preference order (primary first,
// then ring-successor replicas, then any re-replicated extras). Fragments
// are idempotent reads keyed by the primary slice id, so re-executing on a
// later holder after discarding a partial stream cannot double-count rows —
// exactly one holder's complete row set ever reaches the merge.
type fragTarget struct {
	primary int
	holders []holder
}

// retryableStatus reports whether an HTTP status is worth another attempt:
// overload and drain (429/503) clear with backoff, timeouts (408) may be
// transient load, and 5xx may be a shard mid-crash. 4xx means the fragment
// itself is wrong and retrying cannot help.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusRequestTimeout ||
		code >= 500
}

// fragError is an attempt failure plus its retry classification.
type fragError struct {
	err        error
	retryable  bool
	retryAfter time.Duration // server-suggested backoff floor, if any
	skipHolder bool          // replica not mounted here: move down the chain, no breaker penalty
	staleRing  bool          // node rejected our ring version as stale (409)
	ringVer    int64         // the node's newer version, when staleRing
}

func (e *fragError) Error() string { return e.err.Error() }

// attemptFragment issues one fragment RPC against a holder (base address +
// replica path) and streams the NDJSON response into memory. ctx must
// already carry the fragment deadline. The error, when non-nil, is always a
// *fragError.
func (c *Coordinator) attemptFragment(ctx context.Context, addr, path, fsql, qid string) ([]ColMeta, [][]any, error) {
	if err := faultinject.ErrAt("cluster.fragment.connect"); err != nil {
		return nil, nil, &fragError{err: fmt.Errorf("connect %s: %w", addr, err), retryable: true}
	}
	faultinject.Hit("cluster.fragment.slow")
	url := addr + path + "/query"
	resp, err := postStream(ctx, c.httpClient(), url, fsql, "X-Query-ID", qid,
		"X-Ring-Version", strconv.FormatInt(c.ring.Version(), 10))
	if err != nil {
		// Transport-level failure: refused, reset, or the fragment
		// deadline. The parent query context deciding it is different —
		// the caller checks that before classifying.
		return nil, nil, &fragError{err: fmt.Errorf("fragment %s: %w", url, err), retryable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		re := server.DecodeError(resp)
		fe := &fragError{
			err:        fmt.Errorf("fragment %s: %w", url, re),
			retryable:  retryableStatus(re.Status),
			retryAfter: re.RetryAfter,
		}
		switch re.Status {
		case http.StatusNotFound:
			if path != "" {
				// The replica is not mounted on this node — the chain is
				// mid-re-replication or our view is behind. Not the shard's
				// fault; skip down the chain without a breaker penalty.
				fe.skipHolder = true
			}
		case http.StatusConflict:
			// The node has seen a newer placement than the version we sent.
			// Adopt it and retry immediately: the re-resolved chain is valid.
			fe.retryable = true
			fe.staleRing = true
			fe.ringVer, _ = strconv.ParseInt(resp.Header.Get("X-Ring-Version"), 10, 64)
		}
		return nil, nil, fe
	}

	var hdr server.StreamHeader
	var rows [][]any
	err = server.ReadStream(resp.Body, &hdr, func(line []byte) error {
		if (len(rows)+1)%64 == 0 {
			if err := faultinject.ErrAt("cluster.fragment.stream"); err != nil {
				return err
			}
		}
		row, err := decodeRow(line, hdr.Cols)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	}, nil)
	if err != nil {
		// A stream cut short — the shard died before its trailer, or the
		// fault site hung up — is worth another attempt; one that does not
		// decode is not.
		return nil, nil, &fragError{err: fmt.Errorf("fragment %s: %w", url, err), retryable: !errors.Is(err, server.ErrBadStream)}
	}
	return hdr.Cols, rows, nil
}

// postStream posts one query to url asking for an NDJSON stream, with the
// given header name/value pairs.
func postStream(ctx context.Context, hc *http.Client, url, fsql string, headers ...string) (*http.Response, error) {
	body, _ := json.Marshal(server.QueryRequest{SQL: fsql, Stream: true})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	return hc.Do(req)
}

// decodeRow parses one NDJSON row array into typed values; a row that does
// not decode is a server.ErrBadStream.
func decodeRow(line []byte, cols []ColMeta) ([]any, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var raw []any
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("%w: row: %v", server.ErrBadStream, err)
	}
	if len(raw) != len(cols) {
		return nil, fmt.Errorf("%w: row has %d values, want %d", server.ErrBadStream, len(raw), len(cols))
	}
	row := make([]any, len(raw))
	for i, v := range raw {
		cv, err := coerce(v, cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("%w: column %s: %v", server.ErrBadStream, cols[i].Name, err)
		}
		row[i] = cv
	}
	return row, nil
}

// coerce converts a decoded JSON value to the column's Go representation.
func coerce(v any, typ string) (any, error) {
	switch typ {
	case storage.Float64.String():
		switch n := v.(type) {
		case json.Number:
			return n.Float64()
		case float64:
			return n, nil
		}
	case storage.String.String():
		if s, ok := v.(string); ok {
			return s, nil
		}
	default: // INT64, INT32, DATE, BOOL
		switch n := v.(type) {
		case json.Number:
			return n.Int64()
		case float64:
			return int64(n), nil
		}
	}
	return nil, fmt.Errorf("unexpected %T for %s", v, typ)
}

// runFragment executes one fragment with the full robustness ladder across
// its holder chain: per-attempt deadline, jittered exponential backoff, and
// breaker consultation at each holder; when a holder is condemned (prober
// Down, breaker open, replica unmounted) or exhausts its retry budget, the
// partial stream is discarded and the fragment re-executes whole on the
// next holder — transparent failover. Fragments are read-only and therefore
// always idempotent; exactly one holder's complete rows are returned, so a
// mid-stream death can never double-count. A nil error means the rows are
// complete; the typed alternative is *ShardUnavailableError — every holder
// down, the double-fault — or the parent context's cause.
func (c *Coordinator) runFragment(ctx context.Context, ft fragTarget, fsql, qid string) (*fragResult, error) {
	var lastErr error
	tries := 0
	for hi, h := range ft.holders {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		sh := h.sh
		if hi > 0 {
			c.failoverAttempts.Add(1)
		}
		if sh.State() == Down || !sh.breaker.allow(time.Now()) {
			// Fail-fast reroute: the prober or breaker already condemned
			// this holder; don't burn the retry budget proving it again.
			sh.failures.Add(1)
			c.reroutes.Add(1)
			if lastErr == nil {
				lastErr = fmt.Errorf("shard %d %s, breaker open", sh.id, sh.State())
			}
			continue
		}
		fr, err := c.holderAttempts(ctx, sh, h.path, fsql, qid, &tries)
		if err == nil {
			fr.tries = tries
			if hi > 0 {
				c.failoverSuccess.Add(1)
				sh.failoversServed.Add(1)
				fr.failedOver = true
			}
			return fr, nil
		}
		var fe *fragError
		if !errors.As(err, &fe) {
			// Parent context cause (client gone, drain, deadline) — not a
			// holder failure; no further holder can help.
			return nil, err
		}
		lastErr = fe.err
		if fe.skipHolder {
			// Replica not mounted here: reroute down the chain, the holder
			// itself is healthy.
			c.reroutes.Add(1)
			continue
		}
		if !fe.retryable {
			sh.failures.Add(1)
			return nil, fe.err
		}
		sh.failures.Add(1) // this holder exhausted its budget; fail over
	}
	return nil, &ShardUnavailableError{
		Shard: ft.primary, Addr: c.shards[ft.primary].Addr(),
		Attempts: tries, Replicas: len(ft.holders) - 1,
		RetryAfter: c.unavailableRetryAfter(), Err: lastErr,
	}
}

// holderAttempts runs the per-holder retry ladder: up to MaxRetries
// re-dispatches with jittered backoff against one holder (a stale-ring 409
// re-issues at once, counted as a retry but outside the budget). The
// returned error is a *fragError when the holder failed (retryable =
// budget exhausted on transient errors; skipHolder = replica unmounted) and
// the parent context's cause when the query itself died.
func (c *Coordinator) holderAttempts(ctx context.Context, sh *shard, path, fsql, qid string, tries *int) (*fragResult, error) {
	var lastErr error
	var redirected int64 // highest ring version a 409 has shown this ladder
	redirects := 0       // free stale-ring re-issues taken by this ladder
	for attempt := 0; attempt <= c.cfg.MaxRetries; {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		if attempt > 0 && (sh.State() == Down || !sh.breaker.allow(time.Now())) {
			// The holder was condemned mid-ladder; hand the fragment back so
			// the chain can move on instead of sleeping out the budget here.
			break
		}
		addr := sh.Addr()
		if faultinject.ErrAt("cluster.ring.stale") != nil {
			// A router that missed a rebalance dispatches to the shard's
			// previous address; the retry ladder re-resolves and recovers.
			sh.mu.Lock()
			if sh.prevAddr != "" {
				addr = sh.prevAddr
			}
			sh.mu.Unlock()
		}
		sh.fragments.Add(1)
		*tries++
		if attempt+redirects > 0 {
			// Every dispatch after the ladder's first is a retry — a free
			// redirect too, as Stats.Retries (tries-1) counts it.
			sh.retries.Add(1)
			c.retries.Add(1)
		}
		aqid := fmt.Sprintf("%s.s%d.a%d", qid, sh.id, attempt)
		if redirects > 0 {
			aqid += fmt.Sprintf("r%d", redirects) // one id per dispatch
		}
		actx := ctx
		var cancel context.CancelFunc
		if c.cfg.FragmentTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.cfg.FragmentTimeout)
		}
		cols, rows, err := c.attemptFragment(actx, addr, path, fsql, aqid)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			sh.breaker.ok()
			return &fragResult{shard: sh, cols: cols, rows: rows}, nil
		}
		if perr := context.Cause(ctx); perr != nil {
			// The parent query died — not the shard's fault; don't punish
			// the breaker.
			return nil, perr
		}
		fe := &fragError{err: err}
		errors.As(err, &fe)
		lastErr = fe.err
		if fe.skipHolder {
			return nil, fe
		}
		if fe.staleRing && fe.ringVer > 0 {
			// Adopt the node's newer placement so the next attempt (and
			// every later fragment) carries a current version.
			c.ring.BumpTo(fe.ringVer)
			// A redirect is not a failure: re-issue at once, free of the
			// breaker and the retry budget — once per version this ladder
			// is shown, not per version this call raised, because sibling
			// fragments of one scatter race to adopt the same bump.
			if fe.ringVer > redirected {
				redirected = fe.ringVer
				redirects++
				continue
			}
		}
		sh.breaker.fail(time.Now())
		if !fe.retryable {
			return nil, fe
		}
		if attempt == c.cfg.MaxRetries {
			break
		}
		if !c.sleepBackoff(ctx, attempt, fe.retryAfter) {
			return nil, context.Cause(ctx)
		}
		attempt++
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard %d %s, breaker open", sh.id, sh.State())
	}
	return nil, &fragError{err: lastErr, retryable: true}
}

// sleepBackoff waits base·2^attempt with ±50% jitter (capped, floored at a
// server-suggested Retry-After). Returns false if the context died first.
func (c *Coordinator) sleepBackoff(ctx context.Context, attempt int, floor time.Duration) bool {
	d := c.cfg.RetryBase << uint(attempt)
	if d > c.cfg.RetryCap {
		d = c.cfg.RetryCap
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if d < floor {
		d = floor
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// scatter runs the same fragment on every listed target concurrently, each
// walking its own failover chain. The first fatal error cancel-causes the
// rest; the goroutines are always joined before return, so a failed scatter
// leaks nothing.
func (c *Coordinator) scatter(ctx context.Context, targets []fragTarget, fsql, qid string) ([]*fragResult, error) {
	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	results := make([]*fragResult, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, ft := range targets {
		wg.Add(1)
		go func(i int, ft fragTarget) {
			defer wg.Done()
			fr, err := c.runFragment(sctx, ft, fsql, fmt.Sprintf("%s.f%d", qid, i))
			if err != nil {
				errs[i] = err
				cancel(err)
				return
			}
			results[i] = fr
		}(i, ft)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// A sibling may have been cancelled by the parent between our checks.
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return results, nil
}
