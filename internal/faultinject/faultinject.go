// Package faultinject provides build-tag-free fault injection for the
// execution engine. Hot paths call Hit(site) or ErrAt(site); with no faults
// armed both compile down to one atomic load and return immediately, so the
// hooks can stay in production code. Tests arm faults against named call
// sites to provoke panics, allocation failures, and artificial stalls under
// real concurrent load, proving that cancellation, panic containment, and
// memory-governor degradation behave as designed.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed fault does when it triggers.
type Kind int

const (
	// Panic makes Hit panic with an *Injected value.
	Panic Kind = iota
	// Stall makes Hit sleep for the configured duration, simulating a
	// stuck worker (used to exercise deadlines and cancellation).
	Stall
	// Fail makes ErrAt return an *Injected error, simulating an
	// allocation or resource failure at the site.
	Fail
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case Fail:
		return "fail"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault describes one armed fault. The zero value triggers on the first
// visit to the site.
type Fault struct {
	Kind Kind
	// After skips the first After visits to the site before triggering,
	// giving deterministic mid-stream faults ("panic on the 3rd morsel").
	After int64
	// Prob, when > 0, triggers each visit independently with the given
	// probability instead of using the After counter.
	Prob float64
	// Stall is the sleep duration for Kind == Stall.
	Stall time.Duration
	// Message is carried inside the Injected value.
	Message string
	// Once disarms the fault after its first trigger.
	Once bool

	// visits and triggers are guarded by the package mutex; keeping them
	// non-atomic keeps Fault copyable for Enable's by-value API.
	visits   int64
	triggers int64
}

// Injected is the value Hit panics with and ErrAt returns. Containment
// layers can detect injected faults with errors.As.
type Injected struct {
	Site    string
	Message string
}

// Error implements error.
func (e *Injected) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("faultinject: injected fault at %s: %s", e.Site, e.Message)
	}
	return fmt.Sprintf("faultinject: injected fault at %s", e.Site)
}

var (
	// enabled is the fast-path guard: false means no faults are armed
	// anywhere and every hook returns after a single atomic load.
	enabled atomic.Bool

	mu    sync.Mutex
	sites map[string]*Fault
	// registry is the set of known site names, populated by the packages
	// that define them (Register). Arm refuses unregistered names so a
	// typo'd site fails the test instead of silently never firing.
	registry map[string]bool
	rng      = rand.New(rand.NewSource(1))
)

// Register declares site names that exist in production code. Packages
// defining fault sites call it from a package-level var so every name a
// test could arm is known before any test runs; Reset never clears the
// registry. The bool return allows `var _ = faultinject.Register(...)`.
func Register(names ...string) bool {
	mu.Lock()
	defer mu.Unlock()
	if registry == nil {
		registry = make(map[string]bool)
	}
	for _, n := range names {
		registry[n] = true
	}
	return true
}

// Registered reports whether the site name was declared via Register.
func Registered(site string) bool {
	mu.Lock()
	defer mu.Unlock()
	return registry[site]
}

// Sites returns every registered site name, sorted — the authoritative list
// chaos tooling prints so scripts can't silently arm a typo.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(registry))
	for s := range registry {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Enable arms a fault at the named call site, replacing any existing fault
// for that site.
func Enable(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*Fault)
	}
	ff := f // private copy; counters start at zero
	sites[site] = &ff
	enabled.Store(true)
}

// Disable disarms the named site.
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(sites, site)
	if len(sites) == 0 {
		enabled.Store(false)
	}
}

// Reset disarms every site. Tests defer this so armed faults never leak
// into later tests (or later -count runs).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	enabled.Store(false)
	rng = rand.New(rand.NewSource(1))
}

// Armed returns the names of currently armed sites, sorted. An empty slice
// means every hook is on its single-atomic-load fast path.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for s := range sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TB is the subset of testing.TB the test helpers need; an interface keeps
// package testing out of production imports.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// Arm is Enable for tests: it arms the fault and registers a t.Cleanup that
// disarms the site again, so a failing (or early-returning) test can never
// leak an armed fault into later tests. Arming an unregistered site name
// fails the test without arming anything — a misspelled site would
// otherwise just never fire and the test would silently stop testing what
// it claims to.
func Arm(t TB, site string, f Fault) {
	t.Helper()
	if !Registered(site) {
		t.Errorf("faultinject: Arm of unregistered site %q; production sites declare themselves with faultinject.Register", site)
		return
	}
	Enable(site, f)
	t.Cleanup(func() { Disable(site) })
}

// FailOnLeak registers a cleanup that fails the test if any site is still
// armed when it ends, then resets the registry so the leak cannot spread to
// later tests or -count repetitions.
func FailOnLeak(t TB) {
	t.Helper()
	t.Cleanup(func() {
		if armed := Armed(); len(armed) != 0 {
			t.Errorf("faultinject: test left faults armed at %v", armed)
			Reset()
		}
	})
}

// Triggers reports how many times the named site has fired.
func Triggers(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if f := sites[site]; f != nil {
		return f.triggers
	}
	return 0
}

// lookup returns the armed fault for site if its trigger condition holds on
// this visit.
func lookup(site string) *Fault {
	mu.Lock()
	f := sites[site]
	if f == nil {
		mu.Unlock()
		return nil
	}
	fire := false
	if f.Prob > 0 {
		fire = rng.Float64() < f.Prob
	} else {
		f.visits++
		fire = f.visits > f.After
	}
	if fire {
		f.triggers++
		if f.Once {
			delete(sites, site)
			if len(sites) == 0 {
				enabled.Store(false)
			}
		}
	}
	mu.Unlock()
	if !fire {
		return nil
	}
	return f
}

// Hit is the hook for panic and stall faults. With nothing armed it costs
// one atomic load. If a Panic fault triggers, Hit panics with *Injected; a
// Stall fault sleeps; a Fail fault is ignored here (use ErrAt).
func Hit(site string) {
	HitCtx(context.Background(), site)
}

// HitCtx is Hit for sites that run under a query context: a Stall fault
// ends early when ctx is done, so a long stall models a worker wedged until
// whoever owns the query (a deadline, a watchdog, a client) cancels it.
func HitCtx(ctx context.Context, site string) {
	if !enabled.Load() {
		return
	}
	f := lookup(site)
	if f == nil {
		return
	}
	switch f.Kind {
	case Panic:
		panic(&Injected{Site: site, Message: f.Message})
	case Stall:
		t := time.NewTimer(f.Stall)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}

// ErrAt is the hook for allocation-failure faults: it returns an *Injected
// error when a Fail fault triggers at the site, else nil.
func ErrAt(site string) error {
	if !enabled.Load() {
		return nil
	}
	f := lookup(site)
	if f == nil || f.Kind != Fail {
		return nil
	}
	return &Injected{Site: site, Message: f.Message}
}
