// Package pagepool recycles query memory across queries: the join's
// partition and build pages, its directories and chain links, spill reload
// buffers, and the group-by's directories, key columns and aggregate states.
// It is a leaf package, so that both the join core and the execution layer
// above it take their pages from the same pool.
package pagepool

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// MaxClass and MaxElems bound the pooled capacities: the largest pooled
// page holds MaxElems elements (bytes for byte pages).
const (
	MaxClass = 22
	MaxElems = 1 << MaxClass
)

// Pool keeps one free stack per power-of-two capacity. A page has one owner
// (a worker's partition, a join task, a hash table, a group-by table) from
// Get until that owner gives it up, by Put (back to the pool) or by Forget
// (left to the garbage collector, for pages something may still point
// into). Every page leaves its owner exactly once, one way or the other.
// The pool zeroes nothing: byte pages are append-only and every other page
// is initialized by its user. Idle pages stay in the pool until reused: the
// garbage collector never empties it. A class keeps at most its high-water
// count of pages — the most it ever had out at once — idle and out
// together, so an idle pool holds no more than the process already held at
// once, which the governor or the broker capped. The pages a query holds
// stay charged to that query's governor.
type Pool[T any] struct {
	classes [MaxClass + 1]class[T]
	poison  T // what Put fills a returned page with under Poison
}

// class is one capacity's free stack and its books.
type class[T any] struct {
	mu     sync.Mutex
	free   [][]T // idle pages, most recently put on top
	out    int   // pages handed out and not yet put or forgotten
	high   int   // the most pages ever out at once
	misses int64 // Get calls that found no idle page
}

// The one page pool, by element type.
var (
	// Bytes holds radix partition pages, BHJ build pages and spill reload
	// buffers.
	Bytes = Pool[byte]{poison: 0xFF}
	// Words holds BHJ directories and group-by hashes; a poisoned word
	// carries every directory tag (the top 16 bits) and a chain head past
	// every table.
	Words = Pool[uint64]{poison: ^uint64(1<<48-1) | math.MaxInt32}
	// Links holds BHJ chain links and group-by directories; a poisoned link
	// ends its chain, and a poisoned directory slot is empty.
	Links = Pool[int32]{poison: -1}
	// Int64s holds group-by integer key columns and aggregate states.
	Int64s = Pool[int64]{poison: math.MinInt64 + 0x5a5a5a5a}
	// Float64s holds group-by float key columns and aggregate states.
	Float64s = Pool[float64]{poison: math.NaN()}
)

// poison makes Put overwrite returned pages, so a test sees a double put or
// a use after put as a wrong answer. Set only by tests.
var poison bool

// Poison switches the pool's test hook (see poison) on and returns a
// function restoring the previous setting. For tests only.
func Poison() (restore func()) {
	old := poison
	poison = true
	return func() { poison = old }
}

// trace, when set by a test, sees every pooled page Get hands out (out) and
// every one Put or Forget takes off the books (!out), by its first element.
var trace func(first any, out bool)

// Trace records every pooled page handed out and taken back until the
// returned stop function is called. stop reports the pages handed out while
// already out or put back while not out (bad), and the pages still out.
// For tests only.
func Trace() (stop func() (bad, out int)) {
	var mu sync.Mutex
	held := map[any]bool{}
	nbad := 0
	trace = func(first any, isOut bool) {
		mu.Lock()
		defer mu.Unlock()
		if held[first] == isOut {
			nbad++
		}
		if isOut {
			held[first] = true
		} else {
			delete(held, first)
		}
	}
	return func() (int, int) {
		trace = nil
		mu.Lock()
		defer mu.Unlock()
		return nbad, len(held)
	}
}

// Cap is the capacity of the page Get(n) returns: n rounded up to a power
// of two, or n itself beyond the largest size class (one oversized
// partition or table), which is a plain allocation.
func Cap(n int) int {
	if n <= 0 || n > MaxElems {
		return max(n, 0)
	}
	return 1 << bits.Len(uint(n-1))
}

// class returns the size class a page of capacity c belongs to, or nil for
// a capacity the pool does not keep (zero, not a power of two, oversized).
func (p *Pool[T]) class(c int) *class[T] {
	if c == 0 || c&(c-1) != 0 || c > MaxElems {
		return nil
	}
	return &p.classes[bits.Len(uint(c))-1]
}

// Get returns an empty page of capacity Cap(n).
func (p *Pool[T]) Get(n int) []T {
	c := Cap(n)
	cl := p.class(c)
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
	if trace != nil {
		trace(&pg[:1][0], true)
	}
	return pg
}

// Put gives a page back. The caller must hold no reference into it.
func (p *Pool[T]) Put(pg []T) {
	cl := p.class(cap(pg))
	if cl == nil {
		return
	}
	pg = pg[:0]
	if trace != nil {
		trace(&pg[:1][0], false)
	}
	if poison {
		full := pg[:cap(pg)]
		full[0] = p.poison
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

// Forget takes a page off the books without taking it back: whatever still
// points into it keeps it, and the garbage collector frees it after.
func (p *Pool[T]) Forget(pg []T) {
	cl := p.class(cap(pg))
	if cl == nil {
		return
	}
	if trace != nil {
		trace(&pg[:1][0], false)
	}
	cl.mu.Lock()
	cl.out--
	cl.mu.Unlock()
}

// Stats is a snapshot of the pool's books, summed over every element type
// and size class.
type Stats struct {
	// IdleBytes is the capacity of the pages the pool holds for reuse.
	IdleBytes int64 `json:"idle_bytes"`
	// OutBytes is the capacity of the pages handed out and not yet put back
	// or forgotten: the page memory running queries hold.
	OutBytes int64 `json:"out_bytes"`
	// Misses counts the pages the pool had to allocate since the process
	// started: the first use of a class, or a class asked for more pages at
	// once than the pool had idle.
	Misses int64 `json:"misses"`
}

// Snapshot returns a snapshot of the pool's books.
func Snapshot() Stats {
	var st Stats
	Bytes.addStats(&st, 1)
	Words.addStats(&st, 8)
	Links.addStats(&st, 4)
	Int64s.addStats(&st, 8)
	Float64s.addStats(&st, 8)
	return st
}

func (p *Pool[T]) addStats(st *Stats, elemBytes int64) {
	for i := range p.classes {
		cl := &p.classes[i]
		pageBytes := elemBytes << i
		cl.mu.Lock()
		st.IdleBytes += int64(len(cl.free)) * pageBytes
		st.OutBytes += int64(cl.out) * pageBytes
		st.Misses += cl.misses
		cl.mu.Unlock()
	}
}

// Out returns the pages out of every size class that has any, by
// "type/capacity". For tests only.
func Out() map[string]int {
	out := map[string]int{}
	Bytes.addOut(out, "bytes")
	Words.addOut(out, "words")
	Links.addOut(out, "links")
	Int64s.addOut(out, "int64s")
	Float64s.addOut(out, "float64s")
	return out
}

func (p *Pool[T]) addOut(out map[string]int, name string) {
	for i := range p.classes {
		cl := &p.classes[i]
		cl.mu.Lock()
		if cl.out != 0 {
			out[fmt.Sprintf("%s/%d", name, 1<<i)] = cl.out
		}
		cl.mu.Unlock()
	}
}
