package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"sync"

	"partitionjoin/internal/plan"
)

// ResultCache sits above the plan cache: where the plan cache saves parse
// and plan, the result cache saves the whole execution. It is a bounded
// (bytes and entries) LRU of fully-encoded result sets keyed exactly like
// the plan cache — normalized SQL, catalog generation, and the two
// plan-shaping rewrite gates (Server.cacheKey). Execution-time knobs (join
// algorithm, budgets, adaptation, and the result-cache opt-out itself) are
// deliberately absent from the key: they cannot change the rows a
// statement returns, only how fast they were produced, so sessions
// differing in them share one cached result.
//
// Entries store rows as pre-encoded NDJSON lines packed into pages, the
// stream path's flush unit: a hit replays pages verbatim with a flush and
// a cancellation check between pages, and the JSON-document path splices
// the same pages by turning the '\n' row separators into ',' — safe
// because encoding/json escapes newlines inside values, so '\n' occurs
// only between rows.
type ResultCache struct {
	mu         sync.Mutex
	capBytes   int64
	capEntries int
	maxEntry   int64 // largest cacheable result; bigger fills are rejected
	bytes      int64
	lru        *list.List // front = most recently used; values are *resultEntry
	byKey      map[string]*list.Element
	hits       int64
	misses     int64
	evicted    int64
	rejected   int64
}

// resultEntry is one cached result set.
type resultEntry struct {
	key   string
	bytes int64
	cols  []ColMeta
	// pages are NDJSON row lines ('['...']\n' each), packed to about
	// resultPageBytes per page.
	pages    [][]byte
	rowCount int
	// sourceRows is the original execution's source-tuple count, replayed
	// in the stats block so throughput accounting stays meaningful.
	sourceRows int64
}

// resultPageBytes is the target page size: large enough to amortize the
// flush syscall, small enough that a disconnected client is noticed and
// the stream abandoned within one page.
const resultPageBytes = 64 << 10

// NewResultCache builds a cache bounded by capBytes (<= 0 uses 64 MiB) and
// capEntries (<= 0 uses 256). Single results larger than capBytes/8 are
// never cached: one giant result must not evict the whole working set.
func NewResultCache(capBytes int64, capEntries int) *ResultCache {
	if capBytes <= 0 {
		capBytes = 64 << 20
	}
	if capEntries <= 0 {
		capEntries = 256
	}
	return &ResultCache{
		capBytes:   capBytes,
		capEntries: capEntries,
		maxEntry:   capBytes / 8,
		lru:        list.New(),
		byKey:      make(map[string]*list.Element),
	}
}

// Get returns the cached result for key, marking it most recently used.
// Entries are immutable after insertion, so the returned entry is safe to
// replay without holding the lock.
func (c *ResultCache) Get(key string) (*resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*resultEntry), true
}

// Put inserts a result, evicting least-recently-used entries past either
// bound. Oversized results are dropped (rejected). Concurrent fills of the
// same key keep the newest.
func (c *ResultCache) Put(e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.bytes > c.maxEntry {
		c.rejected++
		return
	}
	if el, ok := c.byKey[e.key]; ok {
		c.bytes += e.bytes - el.Value.(*resultEntry).bytes
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.byKey[e.key] = c.lru.PushFront(e)
		c.bytes += e.bytes
	}
	for c.lru.Len() > c.capEntries || c.bytes > c.capBytes {
		oldest := c.lru.Back()
		old := oldest.Value.(*resultEntry)
		c.lru.Remove(oldest)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
		c.evicted++
	}
}

// MaxEntry returns the per-result size cap a fill must stay under.
func (c *ResultCache) MaxEntry() int64 { return c.maxEntry }

// noteRejected counts a fill abandoned for size before it reached Put.
func (c *ResultCache) noteRejected() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

// Purge empties the cache: RegisterTable calls it alongside the plan
// cache's purge so a table reload invalidates cached rows immediately
// (the catalog version in the key already makes stale entries
// unreachable; purging frees their bytes).
func (c *ResultCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.byKey = make(map[string]*list.Element)
	c.bytes = 0
}

// ResultCacheStats is the /statsz snapshot.
type ResultCacheStats struct {
	Entries    int     `json:"entries"`
	CapEntries int     `json:"cap_entries"`
	Bytes      int64   `json:"bytes"`
	CapBytes   int64   `json:"cap_bytes"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evicted    int64   `json:"evicted"`
	Rejected   int64   `json:"rejected"`
	HitRate    float64 `json:"hit_rate"`
}

// Stats returns occupancy and hit/miss/eviction counters.
func (c *ResultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ResultCacheStats{
		Entries: c.lru.Len(), CapEntries: c.capEntries,
		Bytes: c.bytes, CapBytes: c.capBytes,
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Rejected: c.rejected,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}

// encodeResultEntry encodes a finished execution into a cache entry:
// every row as one NDJSON line, lines packed into pages. It returns nil
// when the encoded rows outgrow maxBytes — the caller then serves the
// result through the uncached writers and the fill is rejected without
// having buffered the whole oversized result.
func encodeResultEntry(key string, cols []ColMeta, res *plan.ExecResult, maxBytes int64) *resultEntry {
	e := &resultEntry{key: key, cols: cols, rowCount: res.Result.NumRows(), sourceRows: res.SourceRows}
	var page bytes.Buffer
	page.Grow(resultPageBytes + 1024)
	enc := json.NewEncoder(&page)
	row, fill := make([]any, len(cols)), fillRow(res.Result)
	flush := func() {
		if page.Len() == 0 {
			return
		}
		pg := make([]byte, page.Len())
		copy(pg, page.Bytes())
		e.pages = append(e.pages, pg)
		e.bytes += int64(len(pg))
		page.Reset()
	}
	for i := 0; i < e.rowCount; i++ {
		fill(i, row)
		if enc.Encode(row) != nil {
			return nil
		}
		if page.Len() >= resultPageBytes {
			flush()
			if e.bytes > maxBytes {
				return nil
			}
		}
	}
	flush()
	if e.bytes > maxBytes {
		return nil
	}
	return e
}
