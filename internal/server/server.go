// Package server is the query service layer of the engine: a long-lived,
// concurrent SQL-over-HTTP daemon wrapping the single-process stack (SQL
// frontend → plan → admission → governed execution → spill) the earlier
// layers built. It owns what a network service needs and a one-shot CLI
// never did:
//
//   - session lifecycle: clients create sessions carrying per-session
//     defaults (memory budget, timeout, join algorithm, rewrite A/B gates)
//     and a private spill directory, expired by a janitor when idle;
//   - a bounded LRU prepared-statement cache keyed on normalized SQL —
//     parse and plan once, execute many — invalidated when a table is
//     re-registered;
//   - a bytes- and entry-bounded result cache above the plan cache: repeat
//     statements replay pre-encoded row pages without planning, admission,
//     or execution, with the X-Result-Cache header naming hit or miss;
//   - chunked NDJSON row streaming with mid-stream client-disconnect
//     cancellation through the request context, the admission reservation
//     held until the last row is consumed;
//   - typed error mapping: overload → 429 with Retry-After, deadline → 408,
//     client cancel → 499, watchdog stall and contained panics → 5xx, every
//     response naming the query ID;
//   - graceful drain: stop accepting, let in-flight queries finish inside a
//     grace window, then cancel-cause the stragglers;
//   - introspection: /healthz flips during drain, /statsz exports broker
//     pool state, queue depth, shed counts, plan-cache hit rate, session
//     counts, and aggregated execution meters.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partitionjoin/internal/adapt"
	"partitionjoin/internal/admit"
	"partitionjoin/internal/colstore"
	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/pagepool"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/sql"
	"partitionjoin/internal/storage"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the per-query pipeline parallelism (0 = GOMAXPROCS).
	Workers int
	// Algo is the default join algorithm for sessions that do not choose.
	Algo plan.JoinAlgo
	// Core tunes the radix joins; the zero value uses core.DefaultConfig().
	Core core.Config
	// MemBudget is the default per-query budget request in bytes.
	MemBudget int64
	// Timeout is the default per-query deadline (0 = none).
	Timeout time.Duration
	// SpillDir, when set, arms spilling; sessions get private subtrees.
	SpillDir string
	// DataDir, when set, is the column store directory the served tables
	// were opened from; queries default their spill space under it when
	// SpillDir is empty (see plan.Options.DataDir).
	DataDir string
	// BufferPool, when set, is the column store's buffer pool backing the
	// served tables; /statsz reports its counters under "buffer_pool".
	BufferPool *colstore.Pool
	// PlanCacheSize bounds the prepared-statement LRU (<= 0 uses 128).
	PlanCacheSize int
	// ResultCacheBytes bounds the result cache (<= 0 uses 64 MiB) and
	// ResultCacheEntries its entry count (<= 0 uses 256); NoResultCache
	// disables result caching server-wide. Sessions opt out individually
	// via SessionDefaults.NoResultCache.
	ResultCacheBytes   int64
	ResultCacheEntries int
	NoResultCache      bool
	// SessionTTL expires idle sessions (<= 0 uses 10 minutes).
	SessionTTL time.Duration
	// JanitorInterval is the session-expiry sweep period (<= 0 uses
	// SessionTTL/4, min 100ms).
	JanitorInterval time.Duration
	// NoAdapt disables runtime adaptation (mid-build join migration, skew
	// splits, reservation revision) server-wide; sessions can also opt out
	// individually via SessionDefaults.
	NoAdapt bool
	// Broker routes queries through process-wide admission control; nil
	// runs unarbitrated. The server does not close it — the owner does.
	Broker *admit.Broker
	// StreamChunk is the number of rows encoded between flush/cancellation
	// checks while streaming (<= 0 uses 256).
	StreamChunk int
}

// execMeters aggregates ExecResult meters across all queries.
type execMeters struct {
	RowsReturned    atomic.Int64
	SourceRows      atomic.Int64
	SpilledBytes    atomic.Int64
	DegradedEvents  atomic.Int64
	MorselsPruned   atomic.Int64
	BatchesPruned   atomic.Int64
	RowsPrefiltered atomic.Int64
	AdaptMigrations atomic.Int64
	AdaptSplits     atomic.Int64
	AdaptRevisions  atomic.Int64
}

// Server is the query service. Construct with New, serve it as an
// http.Handler, and end it with Drain.
type Server struct {
	cfg    Config
	cache  *PlanCache
	rcache *ResultCache // nil when Config.NoResultCache
	mux    *http.ServeMux
	edge   *Edge

	mu         sync.Mutex
	cat        sql.Catalog // replaced wholesale on RegisterTable (copy-on-write)
	catVersion int64
	sessions   map[string]*session

	bg sync.WaitGroup // janitor and other background loops

	sessionSeq      atomic.Int64
	sessionsExpired atomic.Int64
	queryID         atomic.Int64
	active          atomic.Int64
	meters          execMeters
	started         time.Time
}

// New builds a server over the given catalog. The catalog map is copied;
// use RegisterTable to change it afterwards.
func New(cfg Config, cat sql.Catalog) *Server {
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 10 * time.Minute
	}
	if cfg.JanitorInterval <= 0 {
		cfg.JanitorInterval = cfg.SessionTTL / 4
		if cfg.JanitorInterval < 100*time.Millisecond {
			cfg.JanitorInterval = 100 * time.Millisecond
		}
	}
	if cfg.Core == (core.Config{}) {
		cfg.Core = core.DefaultConfig()
	}
	s := &Server{
		cfg:      cfg,
		cache:    NewPlanCache(cfg.PlanCacheSize),
		cat:      make(sql.Catalog, len(cat)),
		sessions: make(map[string]*session),
		edge:     NewEdge(cfg.StreamChunk),
		started:  time.Now(),
	}
	if !cfg.NoResultCache {
		s.rcache = NewResultCache(cfg.ResultCacheBytes, cfg.ResultCacheEntries)
	}
	for k, v := range cat {
		s.cat[strings.ToLower(k)] = v
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/session", s.handleSession)
	s.mux.HandleFunc("/session/", s.handleSession)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.bg.Add(1)
	go s.sessionJanitor(cfg.JanitorInterval)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Broker exposes the admission broker (nil when unarbitrated) so harnesses
// can assert pool balance after drain.
func (s *Server) Broker() *admit.Broker { return s.cfg.Broker }

// RegisterTable replaces (or adds) a table in the catalog and invalidates
// the plan cache: every cached plan compiled against the previous storage
// generation is unreachable afterwards — re-registration is how a table
// reload becomes visible, and a stale plan must never read freed columns.
func (s *Server) RegisterTable(t *storage.Table) {
	s.mu.Lock()
	next := make(sql.Catalog, len(s.cat)+1)
	for k, v := range s.cat {
		next[k] = v
	}
	next[strings.ToLower(t.Name)] = t
	s.cat = next
	s.catVersion++
	s.mu.Unlock()
	s.cache.Purge()
	if s.rcache != nil {
		s.rcache.Purge()
	}
}

// catalog returns the current catalog generation and its version.
func (s *Server) catalog() (sql.Catalog, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat, s.catVersion
}

// Drain gracefully stops the server through its edge's drain gate (see
// Edge.Drain): new queries are refused with 503, in-flight ones may finish
// within grace, stragglers are cancelled with ErrDraining as the cause. It
// returns true for a clean drain, blocks until the last handler has
// returned and background loops have stopped, and is idempotent.
func (s *Server) Drain(grace time.Duration) bool {
	clean := s.edge.Drain(grace) // also stops the janitor
	s.bg.Wait()
	// Reclaim every session's spill tree on the way out.
	s.mu.Lock()
	sessions := s.sessions
	s.sessions = map[string]*session{}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.destroy()
	}
	return clean
}

// queryStats is the per-query meter block of a response.
type queryStats struct {
	DurationMS   float64  `json:"duration_ms"`
	SourceRows   int64    `json:"source_rows"`
	Reserved     int64    `json:"reserved_bytes,omitempty"`
	AdmitWaitMS  float64  `json:"admit_wait_ms,omitempty"`
	MemPeak      int64    `json:"mem_peak_bytes,omitempty"`
	Degraded     []string `json:"degraded,omitempty"`
	SpilledBytes int64    `json:"spilled_bytes,omitempty"`
	// Adapt carries the runtime adaptation summary when the query adapted
	// (migrations, partition splits, reservation revisions, decision log).
	Adapt     *adapt.Stats `json:"adapt,omitempty"`
	PlanCache string       `json:"plan_cache"` // "hit" or "miss"
	// ResultCache is "hit" when the response was replayed from the result
	// cache and "miss" when this execution filled (or tried to fill) it;
	// absent when the cache is off or the session opted out.
	ResultCache string `json:"result_cache,omitempty"`
}

// fail answers a failed query with the status its error maps to.
func (s *Server) fail(w http.ResponseWriter, qid string, err error, reqDone bool) {
	status, retryAfter := Status(err, reqDone)
	s.edge.WriteError(w, qid, status, retryAfter, err)
}

// cacheKey builds the plan-cache key: catalog generation, the two rewrite
// gates that shape the prepared tree, and the normalized statement. The
// join algorithm and all resource knobs are execution-time and deliberately
// absent — sessions differing only in them share one plan.
func cacheKey(catVersion int64, noPush, noDict bool, normalized string) string {
	return fmt.Sprintf("v%d|p%t|d%t|%s", catVersion, noPush, noDict, normalized)
}

// handleQuery is POST /query: resolve session, prepare (or fetch) the plan,
// admit, execute, and deliver rows as one JSON document or an NDJSON stream.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	qid := QueryID(r.Header.Get("X-Query-ID"), "q", &s.queryID)
	w.Header().Set("X-Query-ID", qid)
	// The query context dies with the client (request context), the drain
	// deadline (the edge's gate), or the per-query timeout.
	qctx, done, err := s.edge.Enter(r.Context())
	if err != nil {
		s.fail(w, qid, err, false)
		return
	}
	defer done()
	s.edge.Total.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	req, err := ReadQuery(r)
	if err != nil {
		s.edge.WriteError(w, qid, http.StatusBadRequest, 0, err)
		return
	}
	if h := r.Header.Get("X-Session"); h != "" && req.Session == "" {
		req.Session = h
	}

	// Session resolution: defaults layer under per-request overrides.
	var defaults SessionDefaults
	var sess *session
	if req.Session != "" {
		sess, err = s.lookupSession(req.Session)
		if err != nil {
			s.edge.WriteError(w, qid, http.StatusBadRequest, 0, err)
			return
		}
		defaults = sess.defaults
	}
	budget := s.cfg.MemBudget
	if defaults.MemBudget > 0 {
		budget = defaults.MemBudget
	}
	if req.MemBudget > 0 {
		budget = req.MemBudget
	}
	timeout := s.cfg.Timeout
	if defaults.TimeoutMS > 0 {
		timeout = time.Duration(defaults.TimeoutMS) * time.Millisecond
	}
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	algo, _ := parseAlgo(defaults.Algo)

	// Plan cache: normalized SQL + catalog generation + rewrite gates.
	normalized, err := sql.Normalize(req.SQL)
	if err != nil {
		s.edge.WriteError(w, qid, http.StatusBadRequest, 0, err)
		return
	}
	cat, catVersion := s.catalog()
	key := cacheKey(catVersion, defaults.NoScanPushdown, defaults.NoDictCodes, normalized)

	// Result cache: consulted before planning and before admission — a hit
	// costs no broker reservation and no execution, just a page replay. The
	// opt-out (server flag or session default) is an execution-time knob
	// and deliberately not part of the key: an opted-out session bypasses
	// the cache but does not fragment it.
	useRC := s.rcache != nil && !defaults.NoResultCache
	if useRC {
		if ce, ok := s.rcache.Get(key); ok {
			w.Header().Set("X-Result-Cache", "hit")
			s.edge.OK.Add(1)
			s.meters.RowsReturned.Add(int64(ce.rowCount))
			stats := queryStats{SourceRows: ce.sourceRows, PlanCache: "hit", ResultCache: "hit"}
			if req.Stream {
				s.streamCached(r.Context(), w, qid, ce, stats, time.Now())
			} else {
				s.writeCachedDoc(w, qid, ce, stats, time.Now())
			}
			return
		}
		w.Header().Set("X-Result-Cache", "miss")
	}

	gateOpts := plan.Options{NoScanPushdown: defaults.NoScanPushdown, NoDictCodes: defaults.NoDictCodes}
	prepared, cached := s.cache.Get(key)
	if !cached {
		prepared, err = sql.Prepare(cat, req.SQL, gateOpts)
		if err != nil {
			s.edge.WriteError(w, qid, http.StatusBadRequest, 0, err)
			return
		}
		s.cache.Put(key, prepared)
	}

	if timeout > 0 {
		var tcancel context.CancelFunc
		qctx, tcancel = context.WithTimeout(qctx, timeout)
		defer tcancel()
	}

	opts := plan.Options{
		Workers: s.cfg.Workers, Algo: algo, Core: s.cfg.Core,
		MemBudget:      budget,
		DataDir:        s.cfg.DataDir,
		NoScanPushdown: defaults.NoScanPushdown, NoDictCodes: defaults.NoDictCodes,
		NoAdapt: s.cfg.NoAdapt || defaults.NoAdapt,
	}
	if s.cfg.SpillDir != "" {
		opts.SpillDir = s.cfg.SpillDir
		if sess != nil {
			dir, derr := sess.spillParent(s.cfg.SpillDir)
			if derr != nil {
				s.edge.WriteError(w, qid, http.StatusInternalServerError, 0, derr)
				return
			}
			opts.SpillDir = dir
		}
	}

	// Admission: the server holds the reservation itself so it spans both
	// execution and row streaming — a client that disconnects mid-stream
	// releases pool memory the moment the handler unwinds, not when some
	// timeout fires.
	if s.cfg.Broker != nil {
		rsv, actx, aerr := s.cfg.Broker.Admit(qctx, budget)
		if aerr != nil {
			s.fail(w, qid, aerr, r.Context().Err() != nil)
			return
		}
		defer rsv.Release()
		opts.Reservation = rsv
		qctx = actx
	}

	res, err := prepared.ExecuteErr(qctx, opts)
	if err != nil {
		s.fail(w, qid, err, r.Context().Err() != nil)
		return
	}
	s.edge.OK.Add(1)
	s.recordMeters(res)

	stats := queryStats{
		DurationMS:   float64(res.Duration.Microseconds()) / 1000,
		SourceRows:   res.SourceRows,
		Reserved:     res.Reserved,
		AdmitWaitMS:  float64(res.AdmitWait.Microseconds()) / 1000,
		MemPeak:      res.MemPeak,
		Degraded:     res.Degraded,
		SpilledBytes: res.Spill.SpilledBytes,
		PlanCache:    map[bool]string{true: "hit", false: "miss"}[cached],
	}
	if res.Adapt.Any() {
		a := res.Adapt
		stats.Adapt = &a
	}
	cols := make([]ColMeta, len(res.Cols))
	for i, c := range res.Cols {
		cols[i] = ColMeta{Name: c.Name, Type: res.Result.Vecs[i].T.String()}
	}
	if useRC {
		// Fill: encode the rows once into cache pages, insert, and serve
		// this response from the same pages — the first execution pays the
		// encoding exactly once. Oversized results are served through the
		// uncached writers instead.
		stats.ResultCache = "miss"
		if ce := encodeResultEntry(key, cols, res, s.rcache.MaxEntry()); ce != nil {
			s.rcache.Put(ce)
			if req.Stream {
				s.streamCached(qctx, w, qid, ce, stats, time.Time{})
			} else {
				s.writeCachedDoc(w, qid, ce, stats, time.Time{})
			}
			return
		}
		s.rcache.noteRejected()
	}
	if req.Stream {
		s.edge.StreamRows(qctx, w, qid, cols, res.Result.NumRows(), fillRow(res.Result), stats)
	} else {
		WriteDoc(w, qid, cols, ResultRows(res.Result), stats)
	}
}

// recordMeters folds one query's ExecResult into the lifetime aggregates.
func (s *Server) recordMeters(res *plan.ExecResult) {
	s.meters.RowsReturned.Add(int64(res.Result.NumRows()))
	s.meters.SourceRows.Add(res.SourceRows)
	s.meters.SpilledBytes.Add(res.Spill.SpilledBytes)
	s.meters.DegradedEvents.Add(int64(len(res.Degraded)) + res.DroppedEvents)
	s.meters.MorselsPruned.Add(res.Scan.MorselsPruned)
	s.meters.BatchesPruned.Add(res.Scan.BatchesPruned)
	s.meters.RowsPrefiltered.Add(res.Scan.RowsPrefiltered)
	s.meters.AdaptMigrations.Add(res.Adapt.Migrations)
	s.meters.AdaptSplits.Add(res.Adapt.Splits)
	s.meters.AdaptRevisions.Add(res.Adapt.Revisions())
}

// rowValue extracts row i of vector v as a JSON-encodable value.
func rowValue(v *exec.Vector, i int) any {
	switch v.T {
	case storage.Float64:
		return v.F64[i]
	case storage.String:
		return string(v.Str[i])
	default:
		return v.I64[i]
	}
}

// fillRow is the row function of an executed result: it sets dst to
// row i.
func fillRow(r *exec.Result) func(i int, dst []any) {
	return func(i int, dst []any) {
		for c := range r.Vecs {
			dst[c] = rowValue(&r.Vecs[c], i)
		}
	}
}

// ResultRows materializes an executed result's rows as wire values.
func ResultRows(r *exec.Result) [][]any {
	fill := fillRow(r)
	rows := make([][]any, r.NumRows())
	for i := range rows {
		rows[i] = make([]any, len(r.Vecs))
		fill(i, rows[i])
	}
	return rows
}

// streamCached replays a cached result as NDJSON: header, then the cached
// row pages verbatim (they are already '\n'-terminated row lines), then a
// trailer. Pages are the flush unit, with a cancellation check between
// them so a disconnected client abandons the replay within one page. A
// non-zero start marks a cache hit: the trailer reports the replay time
// instead of the (absent) execution time.
func (s *Server) streamCached(ctx context.Context, w http.ResponseWriter, qid string, ce *resultEntry, stats queryStats, start time.Time) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if err := enc.Encode(StreamHeader{QueryID: qid, Cols: ce.cols}); err != nil {
		return
	}
	for _, pg := range ce.pages {
		if _, err := w.Write(pg); err != nil {
			return // client went away mid-replay
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ctx.Err() != nil {
			s.edge.Canceled.Add(1)
			return
		}
	}
	if !start.IsZero() {
		stats.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	}
	enc.Encode(StreamTrailer{QueryID: qid, RowCount: ce.rowCount, Stats: stats})
	if flusher != nil {
		flusher.Flush()
	}
}

// writeCachedDoc replays a cached result as one JSON document, splicing
// the NDJSON pages into the rows array by turning the '\n' row separators
// into ',' — json encoding escapes newlines inside values, so '\n' occurs
// only between rows.
func (s *Server) writeCachedDoc(w http.ResponseWriter, qid string, ce *resultEntry, stats queryStats, start time.Time) {
	if !start.IsZero() {
		stats.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	}
	colsJSON, _ := json.Marshal(ce.cols)
	statsJSON, _ := json.Marshal(stats)
	qidJSON, _ := json.Marshal(qid)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"query_id":%s,"cols":%s,"rows":[`, qidJSON, colsJSON)
	for i, pg := range ce.pages {
		if i > 0 {
			io.WriteString(w, ",")
		}
		// Every page ends with '\n'; strip it, splice the inner row
		// separators.
		w.Write(bytes.ReplaceAll(pg[:len(pg)-1], []byte("\n"), []byte(",")))
	}
	fmt.Fprintf(w, "],\"row_count\":%d,\"stats\":%s}\n", ce.rowCount, statsJSON)
}

// sessionResponse is the POST /session reply.
type sessionResponse struct {
	Session string `json:"session"`
	TTLMS   int64  `json:"ttl_ms"`
}

// handleSession creates (POST /session) and deletes (DELETE /session/<id>).
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		_, done, err := s.edge.Enter(r.Context())
		if err != nil {
			s.fail(w, "", err, false)
			return
		}
		defer done()
		var d SessionDefaults
		if r.Body != nil {
			if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&d); err != nil && err != io.EOF {
				s.edge.WriteError(w, "", http.StatusBadRequest, 0, fmt.Errorf("bad session body: %w", err))
				return
			}
		}
		sess, err := s.createSession(d)
		if err != nil {
			s.edge.WriteError(w, "", http.StatusBadRequest, 0, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sessionResponse{Session: sess.id, TTLMS: s.cfg.SessionTTL.Milliseconds()})
	case http.MethodDelete:
		id := strings.TrimPrefix(r.URL.Path, "/session/")
		if id == "" || id == "/session" {
			id = r.URL.Query().Get("id")
		}
		if !s.dropSession(id) {
			s.edge.WriteError(w, "", http.StatusNotFound, 0, fmt.Errorf("unknown session %q", id))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "POST or DELETE", http.StatusMethodNotAllowed)
	}
}

// handleHealthz is the load-balancer probe: 200 while serving, 503 while
// draining so traffic shifts away before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.edge.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// BufferPoolStats is the buffer-pool section of /statsz: the colstore
// counters plus the derived hit rate.
type BufferPoolStats struct {
	colstore.PoolStats
	HitRate float64 `json:"hit_rate"`
}

// ServerStats is the /statsz document.
type ServerStats struct {
	UptimeSec       float64      `json:"uptime_sec"`
	Draining        bool         `json:"draining"`
	Sessions        int          `json:"sessions"`
	SessionsExpired int64        `json:"sessions_expired"`
	Broker          *admit.Stats `json:"broker,omitempty"`
	PlanCache       CacheStats   `json:"plan_cache"`
	// ResultCache is absent when the result cache is disabled.
	ResultCache *ResultCacheStats `json:"result_cache,omitempty"`
	// BufferPool is absent when the server is not backed by a column store.
	BufferPool *BufferPoolStats `json:"buffer_pool,omitempty"`
	// PagePool is the process's pooled query memory: join and group-by
	// pages kept idle for reuse, pages running queries hold, and pages the
	// pool allocated.
	PagePool pagepool.Stats `json:"page_pool"`
	Queries  struct {
		Total       int64 `json:"total"`
		Active      int64 `json:"active"`
		OK          int64 `json:"ok"`
		BadRequest  int64 `json:"bad_request"`
		Overloaded  int64 `json:"overloaded"`
		Unavailable int64 `json:"unavailable"`
		Timeout     int64 `json:"timeout"`
		Canceled    int64 `json:"canceled"`
		Stalled     int64 `json:"stalled"`
		Internal    int64 `json:"internal"`
	} `json:"queries"`
	Meters struct {
		RowsReturned    int64 `json:"rows_returned"`
		SourceRows      int64 `json:"source_rows"`
		SpilledBytes    int64 `json:"spilled_bytes"`
		DegradedEvents  int64 `json:"degraded_events"`
		MorselsPruned   int64 `json:"morsels_pruned"`
		BatchesPruned   int64 `json:"batches_pruned"`
		RowsPrefiltered int64 `json:"rows_prefiltered"`
		AdaptMigrations int64 `json:"adapt_migrations"`
		AdaptSplits     int64 `json:"adapt_partition_splits"`
		AdaptRevisions  int64 `json:"adapt_reservation_revisions"`
	} `json:"meters"`
}

// Stats snapshots the server's introspection surface (also available over
// HTTP at /statsz).
func (s *Server) Stats() ServerStats {
	var st ServerStats
	st.UptimeSec = time.Since(s.started).Seconds()
	st.Draining = s.edge.Draining()
	s.mu.Lock()
	st.Sessions = len(s.sessions)
	s.mu.Unlock()
	st.SessionsExpired = s.sessionsExpired.Load()
	if s.cfg.Broker != nil {
		bs := s.cfg.Broker.Stats()
		st.Broker = &bs
	}
	st.PlanCache = s.cache.Stats()
	if s.rcache != nil {
		rs := s.rcache.Stats()
		st.ResultCache = &rs
	}
	if s.cfg.BufferPool != nil {
		ps := s.cfg.BufferPool.Stats()
		st.BufferPool = &BufferPoolStats{PoolStats: ps, HitRate: ps.HitRate()}
	}
	st.PagePool = pagepool.Snapshot()
	st.Queries.Total = s.edge.Total.Load()
	st.Queries.Active = s.active.Load()
	st.Queries.OK = s.edge.OK.Load()
	st.Queries.BadRequest = s.edge.BadRequest.Load()
	st.Queries.Overloaded = s.edge.Overloaded.Load()
	st.Queries.Unavailable = s.edge.Unavailable.Load()
	st.Queries.Timeout = s.edge.Timeout.Load()
	st.Queries.Canceled = s.edge.Canceled.Load()
	st.Queries.Stalled = s.edge.Stalled.Load()
	st.Queries.Internal = s.edge.Internal.Load()
	st.Meters.RowsReturned = s.meters.RowsReturned.Load()
	st.Meters.SourceRows = s.meters.SourceRows.Load()
	st.Meters.SpilledBytes = s.meters.SpilledBytes.Load()
	st.Meters.DegradedEvents = s.meters.DegradedEvents.Load()
	st.Meters.MorselsPruned = s.meters.MorselsPruned.Load()
	st.Meters.BatchesPruned = s.meters.BatchesPruned.Load()
	st.Meters.RowsPrefiltered = s.meters.RowsPrefiltered.Load()
	st.Meters.AdaptMigrations = s.meters.AdaptMigrations.Load()
	st.Meters.AdaptSplits = s.meters.AdaptSplits.Load()
	st.Meters.AdaptRevisions = s.meters.AdaptRevisions.Load()
	return st
}

// handleStatsz serves the stats snapshot as JSON.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
