package core

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// pagedPart is one temporary partition of the first pass: a linked list of
// pages owned by a single worker (Section 4.5: "each temporary partition is
// implemented as a linked list of pages. Whenever a page is full, a larger
// page is prepended"). Pages hold whole packed rows only.
type pagedPart struct {
	pages [][]byte // len = bytes used; cap = allocated
	rows  int64
}

// maxPageBytes caps the geometric page growth and is the largest pooled
// capacity, counted in elements (bytes for byte pages).
const (
	maxPageClass = 22
	maxPageBytes = 1 << maxPageClass
)

// pagePool recycles query memory across queries: one free stack per
// power-of-two capacity. A page has one owner (a worker's pagedPart, a
// Partitions slot, a join task, a hash join's table) from getPage until that
// owner gives it up, by putPage (back to the pool) or by forgetPage (left to
// the garbage collector, for pages something may still point into). Every
// page leaves its owner exactly once, one way or the other. Byte pages are
// append-only and directory words are cleared by their user, so the pool
// zeroes nothing. Idle pages stay in the pool until reused: the garbage
// collector never empties it. A class keeps at most its high-water count of
// pages — the most it ever had out at once — idle and out together, so an
// idle pool holds no more than the process already held at once, which the
// governor or the broker capped. The pages a query holds stay charged to
// that query's governor.
type pagePool[T any] struct {
	classes [maxPageClass + 1]pageClass[T]
	poison  T // what putPage fills a returned page with under poisonPages
}

// pageClass is one capacity's free stack and its books.
type pageClass[T any] struct {
	mu     sync.Mutex
	free   [][]T // idle pages, most recently put on top
	out    int   // pages handed out and not yet put or forgotten
	high   int   // the most pages ever out at once
	misses int64 // getPage calls that found no idle page
}

var (
	// bytePages holds radix partition pages, BHJ build pages and spill
	// reload buffers.
	bytePages = pagePool[byte]{poison: 0xFF}
	// wordPages holds BHJ directories; a poisoned word carries every tag
	// and a chain head past every table.
	wordPages = pagePool[uint64]{poison: ^uint64(bhjIdxMask) | math.MaxInt32}
	// linkPages holds BHJ chain links; a poisoned link ends its chain.
	linkPages = pagePool[int32]{poison: -1}
)

// poisonPages makes putPage overwrite returned pages, so a test sees a
// double put or a use after put as a wrong answer. Set only by tests.
var poisonPages bool

// PoisonPages switches the page pools' test hook (see poisonPages) on and
// returns a function restoring the previous setting. For tests only.
func PoisonPages() (restore func()) {
	old := poisonPages
	poisonPages = true
	return func() { poisonPages = old }
}

// pageTrace, when set by a test, sees every pooled page getPage hands out
// (out) and every one putPage or forgetPage takes off the books (!out), by
// its first element.
var pageTrace func(first any, out bool)

// pageCap is the capacity of the page getPage(n) returns: n rounded up to
// a power of two, or n itself beyond the largest size class (one oversized
// partition or table), which is a plain allocation.
func pageCap(n int) int {
	if n <= 0 || n > maxPageBytes {
		return maxInt(n, 0)
	}
	return 1 << bits.Len(uint(n-1))
}

// class returns the size class a page of capacity c belongs to, or nil for
// a capacity the pool does not keep (zero, not a power of two, oversized).
func (pool *pagePool[T]) class(c int) *pageClass[T] {
	if c == 0 || c&(c-1) != 0 || c > maxPageBytes {
		return nil
	}
	return &pool.classes[bits.Len(uint(c))-1]
}

// getPage returns an empty page of capacity pageCap(n) from pool.
func getPage[T any](pool *pagePool[T], n int) []T {
	c := pageCap(n)
	cl := pool.class(c)
	if cl == nil {
		return make([]T, 0, c)
	}
	var pg []T
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		pg = cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
	} else {
		cl.misses++
	}
	cl.out++
	cl.high = max(cl.high, cl.out)
	cl.mu.Unlock()
	if pg == nil {
		pg = make([]T, 0, c)
	}
	if pageTrace != nil {
		pageTrace(&pg[:1][0], true)
	}
	return pg
}

// putPage gives a page back to pool. The caller must hold no reference into
// it.
func putPage[T any](pool *pagePool[T], pg []T) {
	cl := pool.class(cap(pg))
	if cl == nil {
		return
	}
	pg = pg[:0]
	if pageTrace != nil {
		pageTrace(&pg[:1][0], false)
	}
	if poisonPages {
		full := pg[:cap(pg)]
		full[0] = pool.poison
		for n := 1; n < len(full); n *= 2 {
			copy(full[n:], full[:n])
		}
	}
	cl.mu.Lock()
	cl.out--
	if len(cl.free)+cl.out < cl.high {
		cl.free = append(cl.free, pg)
	}
	cl.mu.Unlock()
}

// forgetPage takes a page off pool's books without taking it back: whatever
// still points into it keeps it, and the garbage collector frees it after.
func forgetPage[T any](pool *pagePool[T], pg []T) {
	cl := pool.class(cap(pg))
	if cl == nil {
		return
	}
	if pageTrace != nil {
		pageTrace(&pg[:1][0], false)
	}
	cl.mu.Lock()
	cl.out--
	cl.mu.Unlock()
}

// letGo ends a query's hold on byte pages of layout l that results were
// emitted from: they go back to the pool, or, when l has string columns
// (emitted as slices into the rows), are forgotten and left to whatever
// still points into them.
func letGo(l *Layout, pages ...[]byte) {
	strs := l.HasStringCols()
	for _, pg := range pages {
		if strs {
			forgetPage(&bytePages, pg)
		} else {
			putPage(&bytePages, pg)
		}
	}
}

// PagePoolStats is a snapshot of the page pools' books, summed over every
// pool and size class.
type PagePoolStats struct {
	// IdleBytes is the capacity of the pages the pools hold for reuse.
	IdleBytes int64 `json:"idle_bytes"`
	// OutBytes is the capacity of the pages handed out and not yet put back
	// or forgotten: the page memory running queries hold.
	OutBytes int64 `json:"out_bytes"`
	// Misses counts the pages the pools had to allocate since the process
	// started: the first use of a class, or a class asked for more pages at
	// once than the pool had idle.
	Misses int64 `json:"misses"`
}

// PagePool returns a snapshot of the page pools' books.
func PagePool() PagePoolStats {
	var st PagePoolStats
	bytePages.addStats(&st, 1)
	wordPages.addStats(&st, 8)
	linkPages.addStats(&st, 4)
	return st
}

func (pool *pagePool[T]) addStats(st *PagePoolStats, elemBytes int64) {
	for i := range pool.classes {
		cl := &pool.classes[i]
		pageBytes := elemBytes << i
		cl.mu.Lock()
		st.IdleBytes += int64(len(cl.free)) * pageBytes
		st.OutBytes += int64(cl.out) * pageBytes
		st.Misses += cl.misses
		cl.mu.Unlock()
	}
}

// putPages returns every byte page of a chunk list.
func putPages(pages [][]byte) {
	for _, pg := range pages {
		putPage(&bytePages, pg)
	}
}

// chunkBytes sums the used bytes of a chunk list.
func chunkBytes(chunks [][]byte) int64 {
	var n int64
	for _, c := range chunks {
		n += int64(len(c))
	}
	return n
}

// write appends packed rows (len(data) is a multiple of rowSize), splitting
// across page boundaries on row boundaries. New pages come from take, which
// may evict this very partition to make room (rows are counted as they
// land, so the partition stays consistent across such a reset).
func (p *pagedPart) write(data []byte, rowSize, firstPageBytes int, take func(n int) []byte) {
	for len(data) > 0 {
		if len(p.pages) == 0 || len(p.last())+rowSize > cap(p.last()) {
			pg := take(p.nextPageBytes(rowSize, firstPageBytes))
			p.pages = append(p.pages, pg)
		}
		pg := p.last()
		space := (cap(pg) - len(pg)) / rowSize * rowSize
		n := len(data)
		if n > space {
			n = space
		}
		p.pages[len(p.pages)-1] = append(pg, data[:n]...)
		p.rows += int64(n / rowSize)
		data = data[n:]
	}
}

func (p *pagedPart) last() []byte { return p.pages[len(p.pages)-1] }

// nextPageBytes is the size of the page to append: pages grow
// geometrically. write fills a page in whole rows only, so the pool's
// power-of-two capacity need not be a multiple of the row size.
func (p *pagedPart) nextPageBytes(rowSize, firstPageBytes int) int {
	size := firstPageBytes
	if n := len(p.pages); n > 0 {
		size = cap(p.pages[n-1]) * 2
		if size > maxPageBytes {
			size = maxPageBytes
		}
	}
	return maxInt(size, rowSize)
}

// swwcbSet is a worker-local set of software write-combine buffers, one per
// output partition (Section 3.3). Rows are staged in a buffer and flushed
// in one contiguous write when it fills, reducing the number of distinct
// write streams from the fan-out to one.
type swwcbSet struct {
	buf      []byte
	used     []int32
	capBytes int
	rowSize  int
	fanout   int
}

// newSWWCBSet sizes buffers to bufBytes rounded down to whole rows; if a
// row exceeds bufBytes the set degenerates to one-row buffers, i.e. direct
// writes, matching the paper's unbuffered mode for wide tuples.
func newSWWCBSet(fanout, bufBytes, rowSize int) *swwcbSet {
	capBytes := bufBytes / rowSize * rowSize
	if capBytes < rowSize {
		capBytes = rowSize
	}
	return &swwcbSet{
		buf:      make([]byte, fanout*capBytes),
		used:     make([]int32, fanout),
		capBytes: capBytes,
		rowSize:  rowSize,
		fanout:   fanout,
	}
}

// tryslot returns the staging area for the next row of partition p, or
// nil when the buffer is full and must be flushed first (flushSlot). The
// split keeps the common path free of the flush-closure argument so it
// inlines into the scatter loops; the caller packs the row directly into
// the returned slice.
func (s *swwcbSet) tryslot(p int) []byte {
	u := s.used[p]
	if int(u)+s.rowSize > s.capBytes {
		return nil
	}
	s.used[p] = u + int32(s.rowSize)
	base := p*s.capBytes + int(u)
	return s.buf[base : base+s.rowSize]
}

// flushSlot is tryslot's slow path: flushes partition p's full buffer
// through flush(p, data) and returns a fresh staging area.
func (s *swwcbSet) flushSlot(p int, flush func(p int, data []byte)) []byte {
	base := p * s.capBytes
	flush(p, s.buf[base:base+int(s.used[p])])
	s.used[p] = int32(s.rowSize)
	return s.buf[base : base+s.rowSize]
}

// slot returns the staging area for the next row of partition p, flushing
// when the buffer is full — the fused form for non-critical callers.
func (s *swwcbSet) slot(p int, flush func(p int, data []byte)) []byte {
	if dst := s.tryslot(p); dst != nil {
		return dst
	}
	return s.flushSlot(p, flush)
}

// drain flushes every non-empty buffer.
func (s *swwcbSet) drain(flush func(p int, data []byte)) {
	for p := 0; p < s.fanout; p++ {
		if u := s.used[p]; u > 0 {
			base := p * s.capBytes
			flush(p, s.buf[base:base+int(u)])
			s.used[p] = 0
		}
	}
}

// parallelFor runs fn(task) for tasks [0,n) on up to workers goroutines,
// handing out tasks through an atomic cursor — the same work-stealing
// discipline the morsel driver uses, reused for the partitioning passes
// and the in-sink scans. A panic in any task stops the remaining workers
// and is re-raised on the calling goroutine, so sink-internal parallelism
// stays inside the driver's containment instead of killing the process.
// fn also receives the index (< workers) of the goroutine running it, for
// tasks that keep per-goroutine scratch.
func parallelFor(n, workers int, fn func(worker, task int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for t := 0; t < n; t++ {
			fn(0, t)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var firstPanic atomic.Pointer[any]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, &r)
				}
			}()
			for firstPanic.Load() == nil {
				t := int(cursor.Add(1)) - 1
				if t >= n {
					return
				}
				fn(w, t)
			}
		}(w)
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(*p)
	}
}
