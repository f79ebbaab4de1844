package core

import (
	"sync"
	"sync/atomic"

	"partitionjoin/internal/pagepool"
)

// pagedPart is one temporary partition of the first pass: a linked list of
// pages owned by a single worker (Section 4.5: "each temporary partition is
// implemented as a linked list of pages. Whenever a page is full, a larger
// page is prepended"). Pages hold whole packed rows only.
type pagedPart struct {
	pages [][]byte // len = bytes used; cap = allocated
	rows  int64
}

// letGo ends a query's hold on byte pages of layout l that results were
// emitted from: they go back to the pool, or, when l has string columns
// (emitted as slices into the rows), are forgotten and left to whatever
// still points into them.
func letGo(l *Layout, pages ...[]byte) {
	strs := l.HasStringCols()
	for _, pg := range pages {
		if strs {
			pagepool.Bytes.Forget(pg)
		} else {
			pagepool.Bytes.Put(pg)
		}
	}
}

// putPages returns every byte page of a chunk list.
func putPages(pages [][]byte) {
	for _, pg := range pages {
		pagepool.Bytes.Put(pg)
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
		if size > pagepool.MaxElems {
			size = pagepool.MaxElems
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
