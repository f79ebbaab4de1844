// Package govern implements the per-query memory governor: an atomic
// allocation accountant with a configurable budget. Operators Grant bytes
// before materializing partition pages, hash tables, or group tables
// and Release them when the memory is dropped; planners consult the live
// account (WouldExceed) to degrade gracefully — the radix join sheds
// fan-out bits and, past a floor, the planner falls back to the
// non-partitioned BHJ, which is the paper's "do not partition" answer made
// operational.
//
// The budget steers decisions; it is deliberately not a hard kill switch.
// A query that degrades all the way to BHJ still runs to completion even
// if the budget was set below its working set — aborting would trade a
// correct (slower) answer for an error. Grant only fails when fault
// injection arms the "govern.grant" site, which is how tests simulate real
// allocation failure. A nil *Governor is valid, records nothing, and never
// degrades, following the meter.Meter convention.
package govern

import (
	"fmt"
	"sync"
	"sync/atomic"

	"partitionjoin/internal/faultinject"
)

// GrantSite is the fault-injection site checked by Grant; arming a Fail
// fault there simulates allocation failure.
const GrantSite = "govern.grant"

var _ = faultinject.Register(GrantSite)

// EventsHead and EventsTail bound the governor's own degradation log: the
// first EventsHead and last EventsTail events are kept verbatim, anything
// between is dropped and counted. A long spilling query can emit one event
// per evicted and reloaded partition; without the bound the governor — the
// component policing memory — would itself grow without limit.
const (
	EventsHead = 256
	EventsTail = 256
)

// Backing is a shared resource pool the governor can draw additional
// budget from before degrading. The admission broker's reservations
// implement it: TryGrow attempts to draw n more bytes and returns the
// bytes actually granted (zero when the pool has no headroom or other
// queries are waiting). Implementations must be safe for concurrent use.
type Backing interface {
	TryGrow(n int64) int64
}

// Governor tracks one query's materialized bytes against a budget. The
// budget is dynamic: when a Backing is attached (admission control), the
// governor grows it from the shared pool before taking a degradation
// decision, so those decisions consult the live reservation rather than a
// static number.
type Governor struct {
	budget  atomic.Int64
	used    atomic.Int64
	peak    atomic.Int64
	backing Backing // set once before execution, read-only afterwards

	mu      sync.Mutex
	head    []string // first EventsHead events
	tail    []string // ring of the last EventsTail events past the head
	tailPos int      // next overwrite position in tail once saturated
	dropped int64    // events evicted from the ring
}

// New returns a governor with the given budget in bytes; budget <= 0 means
// "account but never constrain" (WouldExceed always false).
func New(budget int64) *Governor {
	g := &Governor{}
	g.budget.Store(budget)
	return g
}

// SetBacking attaches the shared pool the governor may grow its budget
// from. Must be called before execution starts; it is not synchronized
// against concurrent WouldExceed.
func (g *Governor) SetBacking(b Backing) {
	if g != nil {
		g.backing = b
	}
}

// Budgeted reports whether a finite budget is set.
func (g *Governor) Budgeted() bool { return g != nil && g.budget.Load() > 0 }

// Budget returns the current budget (0 when unbudgeted or nil). With a
// backing attached it can grow during execution.
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget.Load()
}

// Grant accounts n bytes about to be materialized. It fails only under
// injected allocation faults; see the package comment for why the budget
// itself never rejects a grant.
func (g *Governor) Grant(n int64) error {
	if g == nil {
		return nil
	}
	if err := faultinject.ErrAt(GrantSite); err != nil {
		return fmt.Errorf("govern: allocation of %d bytes failed: %w", n, err)
	}
	used := g.used.Add(n)
	for {
		peak := g.peak.Load()
		if used <= peak || g.peak.CompareAndSwap(peak, used) {
			return nil
		}
	}
}

// MustGrant is Grant for call sites with no error path; an injected failure
// panics and is converted back to an error by the driver's containment.
func (g *Governor) MustGrant(n int64) {
	if err := g.Grant(n); err != nil {
		panic(err)
	}
}

// Release returns n bytes to the account.
func (g *Governor) Release(n int64) {
	if g == nil {
		return
	}
	g.used.Add(-n)
}

// Used returns the live accounted bytes.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Peak returns the high-water mark of accounted bytes.
func (g *Governor) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// WouldExceed reports whether materializing extra more bytes would push the
// account past the budget. Unbudgeted (or nil) governors never constrain.
// With a backing attached, a prospective overrun first tries to grow the
// budget from the shared pool; only when the pool refuses does the caller
// see true and degrade. This is what makes a finishing query's memory
// immediately useful to its neighbours: the next WouldExceed draws it.
func (g *Governor) WouldExceed(extra int64) bool {
	if !g.Budgeted() {
		return false
	}
	over := g.used.Load() + extra - g.budget.Load()
	if over <= 0 {
		return false
	}
	if g.backing != nil {
		if got := g.backing.TryGrow(over); got > 0 {
			nb := g.budget.Add(got)
			g.Note("budget grown by %d B from the shared pool (now %d B)", got, nb)
			return g.used.Load()+extra > nb
		}
	}
	return true
}

// Shrinker is the optional Backing extension for returning budget: pools
// that support reclaiming unused reservation bytes implement TryShrink,
// which takes back up to n bytes and returns the bytes actually reclaimed.
type Shrinker interface {
	TryShrink(n int64) int64
}

// TryGrowBudget explicitly draws up to n more bytes from the backing pool
// and raises the budget by what it got, returning that amount. Unlike
// WouldExceed's implicit growth this is all-or-nothing at the pool's
// discretion; the adaptation controller uses it to revise a reservation up
// before degrading the join.
func (g *Governor) TryGrowBudget(n int64) int64 {
	if g == nil || n <= 0 || g.backing == nil {
		return 0
	}
	got := g.backing.TryGrow(n)
	if got > 0 {
		g.budget.Add(got)
	}
	return got
}

// TryShrinkBudget returns up to n unused budget bytes to the backing pool
// (when it supports reclaim), lowering the budget by the bytes the pool
// took back. The adaptation controller calls it once a join's true
// footprint is known, so queued neighbours admit against observed usage
// rather than the plan's estimate.
func (g *Governor) TryShrinkBudget(n int64) int64 {
	if g == nil || n <= 0 {
		return 0
	}
	sh, ok := g.backing.(Shrinker)
	if !ok {
		return 0
	}
	got := sh.TryShrink(n)
	if got > 0 {
		g.budget.Add(-got)
	}
	return got
}

// Note records a degradation decision (BHJ fallback, fan-out reduction,
// partition spill/reload) so explain output and tests can see what the
// governor did. The log is bounded: see EventsHead/EventsTail.
func (g *Governor) Note(format string, args ...any) {
	if g == nil {
		return
	}
	ev := fmt.Sprintf(format, args...)
	g.mu.Lock()
	switch {
	case len(g.head) < EventsHead:
		g.head = append(g.head, ev)
	case len(g.tail) < EventsTail:
		g.tail = append(g.tail, ev)
	default:
		g.tail[g.tailPos] = ev
		g.tailPos = (g.tailPos + 1) % EventsTail
		g.dropped++
	}
	g.mu.Unlock()
}

// Dropped returns how many events the bounded log evicted.
func (g *Governor) Dropped() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dropped
}

// Events returns the recorded degradation decisions in order. When the
// bounded log overflowed, a synthetic marker line reports how many events
// between the kept head and tail were dropped.
func (g *Governor) Events() []string {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.head)+len(g.tail)+1)
	out = append(out, g.head...)
	if g.dropped > 0 {
		out = append(out, fmt.Sprintf("... (%d earlier events dropped by the bounded log)", g.dropped))
	}
	out = append(out, g.tail[g.tailPos:]...)
	out = append(out, g.tail[:g.tailPos]...)
	return out
}
