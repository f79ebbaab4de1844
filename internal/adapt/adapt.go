// Package adapt implements the runtime adaptation controller that makes the
// partition-or-not decision self-correcting. The paper answers the join
// question at plan time from cardinality estimates; "Design Trade-offs for a
// Robust Dynamic Hybrid Hash Join" shows the join itself should revisit the
// answer mid-flight, and NOCAP shows the partitioning fan-out should follow
// the observed key distribution rather than a static cache formula. The
// controller observes the build side at morsel-granularity checkpoints and
// drives three recoveries:
//
//   - migrate: a BHJ whose build outgrows the memory budget converts its
//     in-progress build into radix partition pages (no restart) so the join
//     can proceed partition-at-a-time within the budget, spilling the
//     overflow (core.AdaptiveJoin).
//   - split: a final partition the sampled-hash sketch flagged as skewed is
//     re-partitioned on further hash bits at join time, instead of paying
//     one oversized hash table for everyone's sins
//     (core.PartitionJoinSource).
//   - revise: the admission reservation is grown before degrading and
//     shrunk once the build's true size is known, so the broker arbitrates
//     observed bytes rather than the plan's guess (govern/admit).
//
// The ladder is observe → grow reservation → migrate → split → spill; every
// rung fires a fault-injection site so tests can provoke failure at each
// decision point. A nil *Controller (adaptation disabled) is valid, records
// nothing, and never adapts, following the meter.Meter convention.
package adapt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"partitionjoin/internal/faultinject"
	"partitionjoin/internal/govern"
	"partitionjoin/internal/meter"
)

// Fault-injection sites of the adaptation decision points.
const (
	// MigrateSite fires when a BHJ build starts migrating into radix
	// partition pages (before any row moves).
	MigrateSite = "adapt.migrate"
	// SplitSite fires when a skewed resident partition is about to be
	// re-partitioned at join time.
	SplitSite = "adapt.split"
	// ReserveGrowSite fires before the controller asks the pool to grow
	// the reservation; ReserveDenySite fires when the pool refused and the
	// controller falls through to migration.
	ReserveGrowSite = "adapt.reserve.grow"
	ReserveDenySite = "adapt.reserve.deny"
	// ReserveShrinkSite fires before unused reservation bytes are returned
	// to the pool.
	ReserveShrinkSite = "adapt.reserve.shrink"
)

var _ = faultinject.Register(MigrateSite, SplitSite, ReserveGrowSite, ReserveDenySite, ReserveShrinkSite)

// Config tunes the controller. The zero value selects the defaults below.
type Config struct {
	// SampleEvery is the hash sampling stride of the key-correlation
	// sketch: roughly one in SampleEvery build rows contributes a sample.
	SampleEvery int
	// SketchBits sizes the sketch histogram at 1<<SketchBits counters.
	SketchBits int
	// MinSamples is the sample count below which the sketch abstains from
	// fan-out decisions.
	MinSamples int64
	// SplitFactor: a resident partition whose build side exceeds
	// SplitFactor×CacheBudget bytes is re-partitioned at join time.
	SplitFactor float64
	// ShrinkSlack is the safety factor kept over observed need when
	// revising a reservation down; MinShrink is the smallest byte count
	// worth returning to the pool.
	ShrinkSlack float64
	MinShrink   int64
	// MaxEvents bounds the controller's own event log.
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.SketchBits <= 0 {
		c.SketchBits = 12
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 256
	}
	if c.SplitFactor <= 0 {
		c.SplitFactor = 4
	}
	if c.ShrinkSlack <= 0 {
		c.ShrinkSlack = 1.5
	}
	if c.MinShrink <= 0 {
		c.MinShrink = 1 << 20
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 64
	}
	return c
}

// Stats is the per-query adaptation summary surfaced through
// plan.ExecResult.Adapt, the sqlrun summary line, and the joind stats
// trailer.
type Stats struct {
	// Checkpoints counts build-side observation points (one per consumed
	// batch on adaptively-wired joins).
	Checkpoints int64 `json:"checkpoints,omitempty"`
	// Migrations counts BHJ builds converted into radix partitions.
	Migrations int64 `json:"migrations,omitempty"`
	// Splits counts skewed resident partitions re-partitioned at join time.
	Splits int64 `json:"partition_splits,omitempty"`
	// SketchBits counts extra second-pass fan-out bits the key-correlation
	// sketch added over the static cache formula.
	SketchBits int64 `json:"sketch_bits_added,omitempty"`
	// Reservation revisions: grows granted, grows denied by the pool, and
	// shrinks returned to it, with the byte volumes moved.
	ResGrows    int64 `json:"reservation_grows,omitempty"`
	ResDenies   int64 `json:"reservation_denies,omitempty"`
	ResShrinks  int64 `json:"reservation_shrinks,omitempty"`
	GrownBytes  int64 `json:"grown_bytes,omitempty"`
	ShrunkBytes int64 `json:"shrunk_bytes,omitempty"`
	// Events is the bounded decision log; DroppedEvents counts evictions.
	Events        []string `json:"events,omitempty"`
	DroppedEvents int64    `json:"dropped_events,omitempty"`
}

// Any reports whether any adaptation decision was taken.
func (s Stats) Any() bool {
	return s.Migrations+s.Splits+s.SketchBits+s.ResGrows+s.ResDenies+s.ResShrinks > 0
}

// Revisions returns the total reservation revision count (grows, denies,
// and shrinks), the number the /statsz meters aggregate.
func (s Stats) Revisions() int64 { return s.ResGrows + s.ResDenies + s.ResShrinks }

// Add folds another query's stats into s (server lifetime aggregation).
func (s *Stats) Add(o Stats) {
	s.Checkpoints += o.Checkpoints
	s.Migrations += o.Migrations
	s.Splits += o.Splits
	s.SketchBits += o.SketchBits
	s.ResGrows += o.ResGrows
	s.ResDenies += o.ResDenies
	s.ResShrinks += o.ResShrinks
	s.GrownBytes += o.GrownBytes
	s.ShrunkBytes += o.ShrunkBytes
}

// Controller is one query's adaptation state: shared counters, the bounded
// event log, and a handle to the governor whose reservation it revises.
// Methods are safe for concurrent use from pipeline workers.
type Controller struct {
	cfg Config
	gov *govern.Governor
	m   *meter.Meter

	checkpoints atomic.Int64
	migrations  atomic.Int64
	splits      atomic.Int64
	sketchBits  atomic.Int64
	resGrows    atomic.Int64
	resDenies   atomic.Int64
	resShrinks  atomic.Int64
	grownBytes  atomic.Int64
	shrunkBytes atomic.Int64

	mu      sync.Mutex
	events  []string
	dropped int64
}

// NewController builds the query's adaptation controller. gov may be nil or
// unbudgeted (migration and reservation revision then never trigger; the
// sketch and split paths still work).
func NewController(cfg Config, gov *govern.Governor, m *meter.Meter) *Controller {
	return &Controller{cfg: cfg.withDefaults(), gov: gov, m: m}
}

// Join creates the per-join adaptation state (sketch, migration trigger,
// plan estimates). Nil-safe: a nil controller yields a nil state, and every
// JoinState method tolerates a nil receiver.
func (c *Controller) Join(id int) *JoinState {
	if c == nil {
		return nil
	}
	return &JoinState{c: c, id: id, sketch: make([]int64, 1<<c.cfg.SketchBits)}
}

// Stats snapshots the controller (zero value for nil).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	events := append([]string(nil), c.events...)
	dropped := c.dropped
	c.mu.Unlock()
	return Stats{
		Checkpoints:   c.checkpoints.Load(),
		Migrations:    c.migrations.Load(),
		Splits:        c.splits.Load(),
		SketchBits:    c.sketchBits.Load(),
		ResGrows:      c.resGrows.Load(),
		ResDenies:     c.resDenies.Load(),
		ResShrinks:    c.resShrinks.Load(),
		GrownBytes:    c.grownBytes.Load(),
		ShrunkBytes:   c.shrunkBytes.Load(),
		Events:        events,
		DroppedEvents: dropped,
	}
}

// event appends to the bounded decision log.
func (c *Controller) event(format string, args ...any) {
	c.mu.Lock()
	if len(c.events) < c.cfg.MaxEvents {
		c.events = append(c.events, fmt.Sprintf(format, args...))
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// JoinState is one join's adaptation state. The zero of everything (a nil
// pointer) disables adaptation for the join.
type JoinState struct {
	c  *Controller
	id int

	// Plan-time estimates, for divergence reporting and shrink targets.
	estBuildRows  int64
	estProbeBytes int64

	// sketch is the NOCAP-style histogram over sampled build hashes:
	// counter i accumulates samples whose hash has low bits i, so the
	// estimated load of final partition p under fan-out F (a power of two
	// ≤ len(sketch)) is the sum of counters ≡ p (mod F).
	sketch  []int64
	samples atomic.Int64

	migrating atomic.Bool
}

// SetPlanEstimates records what the planner believed: build cardinality and
// the probe side's projected materialization bytes (0 when the probe side
// streams). Observed divergence is reported against these.
func (js *JoinState) SetPlanEstimates(buildRows, probeBytes int64) {
	if js == nil {
		return
	}
	js.estBuildRows = buildRows
	js.estProbeBytes = probeBytes
}

// EstProbeBytes returns the planner's probe-side materialization estimate.
func (js *JoinState) EstProbeBytes() int64 {
	if js == nil {
		return 0
	}
	return js.estProbeBytes
}

// SampleEvery returns the sketch sampling stride (0 disables sampling).
func (js *JoinState) SampleEvery() int {
	if js == nil {
		return 0
	}
	return js.c.cfg.SampleEvery
}

// Sample feeds one build-row hash into the key-correlation sketch.
func (js *JoinState) Sample(h uint64) {
	if js == nil {
		return
	}
	atomic.AddInt64(&js.sketch[h&uint64(len(js.sketch)-1)], 1)
	js.samples.Add(1)
}

// Checkpoint counts one build-side observation point.
func (js *JoinState) Checkpoint() {
	if js == nil {
		return
	}
	js.c.checkpoints.Add(1)
}

// ShouldMigrate is the morsel-granularity migration trigger: given the
// projected additional bytes the BHJ still needs to finish its build
// (directory and chain links — beyond what is already granted), it
// reports whether the build should convert to radix partitions. The first
// rung is reservation revision: if the shared pool covers the projected
// overrun, the budget grows and the BHJ carries on. Only when the pool
// refuses (or there is none) does the controller order the migration.
func (js *JoinState) ShouldMigrate(projectedExtra int64) bool {
	if js == nil {
		return false
	}
	if js.migrating.Load() {
		return true
	}
	c := js.c
	g := c.gov
	if !g.Budgeted() {
		return false
	}
	over := g.Used() + projectedExtra - g.Budget()
	if over <= 0 {
		return false
	}
	faultinject.Hit(ReserveGrowSite)
	if got := g.TryGrowBudget(over); got >= over {
		c.resGrows.Add(1)
		c.grownBytes.Add(got)
		c.m.AddAdaptRevision(1)
		c.event("join %d: reservation grown by %d B to cover observed build (budget now %d B)", js.id, got, g.Budget())
		g.Note("adapt: join %d reservation grown by %d B (observed build exceeds estimate)", js.id, got)
		return false
	}
	if !js.migrating.CompareAndSwap(false, true) {
		return true
	}
	faultinject.Hit(ReserveDenySite)
	c.resDenies.Add(1)
	c.m.AddAdaptRevision(1)
	c.event("join %d: pool denied %d B growth; migrating build", js.id, over)
	return true
}

// BeginMigration marks the staged BHJ→radix conversion; called once by the
// adaptive build sink before any row moves. rows is the build cardinality
// observed so far.
func (js *JoinState) BeginMigration(rows int64) {
	if js == nil {
		return
	}
	faultinject.Hit(MigrateSite)
	c := js.c
	c.migrations.Add(1)
	c.m.AddAdaptMigration(1)
	c.event("join %d: BHJ build migrated to radix partitions at %d rows (plan estimated %d)",
		js.id, rows, js.estBuildRows)
	c.gov.Note("adapt: join %d BHJ build migrated to radix partitions at %d rows (plan estimated %d)",
		js.id, rows, js.estBuildRows)
}

// SplitThreshold returns the resident-partition byte size above which the
// join phase re-partitions (0 disables splitting).
func (js *JoinState) SplitThreshold(cacheBudget int) int64 {
	if js == nil || cacheBudget <= 0 {
		return 0
	}
	return int64(js.c.cfg.SplitFactor * float64(cacheBudget))
}

// BeginSplit marks one skewed-partition re-partitioning at join time.
func (js *JoinState) BeginSplit(pid int, rows int64, subBits int) {
	if js == nil {
		return
	}
	faultinject.Hit(SplitSite)
	c := js.c
	c.splits.Add(1)
	c.m.AddAdaptSplit(1)
	c.event("join %d: skewed partition %d (%d rows) split on %d further bits at join time",
		js.id, pid, rows, subBits)
}

// ChooseBits widens the second-pass fan-out beyond the static cache formula
// when the sketch shows the *largest* final partition would still overflow
// the cache budget — correlation-aware sizing in the NOCAP sense: the
// static formula divides total bytes by the fan-out, which under skew makes
// every partition pay for the average while the hot one still misses cache.
// Widening stops when it no longer shrinks the estimated maximum (a single
// hot key that further bits cannot spread). It never narrows below the
// static choice, so uniform workloads keep the paper's behavior bit-for-bit.
func (js *JoinState) ChooseBits(staticB2, b1, maxB2, rowSize int, totalRows int64, cacheBudget int) int {
	if js == nil || cacheBudget <= 0 || totalRows <= 0 {
		return staticB2
	}
	samples := js.samples.Load()
	if samples < js.c.cfg.MinSamples {
		return staticB2
	}
	scale := float64(totalRows) / float64(samples)
	maxLoad := func(b2 int) int64 {
		f := 1 << (b1 + b2)
		loads := make([]int64, f)
		mask := f - 1
		for b := range js.sketch {
			loads[b&mask] += atomic.LoadInt64(&js.sketch[b])
		}
		var m int64
		for _, l := range loads {
			if l > m {
				m = l
			}
		}
		return m
	}
	b2 := staticB2
	for b2 < maxB2 {
		f := 1 << (b1 + b2)
		// Abstain when the sketch cannot resolve this fan-out or the
		// per-partition sample mass is too thin to tell skew from Poisson
		// noise; and only widen on a real skew signal — the hot partition
		// must both overflow the cache budget and hold well over its fair
		// share, so uniform workloads never drift from the static choice.
		if f*2 > len(js.sketch) || samples < 8*int64(f) {
			break
		}
		prev := maxLoad(b2)
		fair := samples / int64(f)
		if float64(prev)*scale*float64(rowSize) <= float64(cacheBudget) || prev < 4*fair {
			break
		}
		next := maxLoad(b2 + 1)
		if float64(next) > 0.75*float64(prev) {
			break // further bits no longer spread the load: hot key(s)
		}
		b2++
	}
	if b2 > staticB2 {
		c := js.c
		c.sketchBits.Add(int64(b2 - staticB2))
		c.event("join %d: sketch widened second-pass fan-out from %d to %d bits (skewed key distribution, %d samples)",
			js.id, staticB2, b2, samples)
	}
	return b2
}

// ShrinkAfterBuild revises the reservation down once the build side closed
// and the query's dominant footprint is known. remaining is the projected
// materialization still to come (the probe side of a partitioned join; 0
// when the probe streams). The controller keeps ShrinkSlack headroom over
// max(peak, used+remaining) and returns the rest to the pool, so queued
// neighbours admit against observed truth instead of the plan's guess.
func (js *JoinState) ShrinkAfterBuild(remaining int64) {
	if js == nil {
		return
	}
	c := js.c
	g := c.gov
	if !g.Budgeted() {
		return
	}
	need := g.Used() + remaining
	if p := g.Peak(); p > need {
		need = p
	}
	target := int64(float64(need) * c.cfg.ShrinkSlack)
	excess := g.Budget() - target
	if excess < c.cfg.MinShrink {
		return
	}
	faultinject.Hit(ReserveShrinkSite)
	got := g.TryShrinkBudget(excess)
	if got <= 0 {
		return
	}
	c.resShrinks.Add(1)
	c.shrunkBytes.Add(got)
	c.m.AddAdaptRevision(1)
	c.event("join %d: reservation shrunk by %d B after build (observed need %d B, budget now %d B)",
		js.id, got, need, g.Budget())
	g.Note("adapt: join %d reservation shrunk by %d B, returned to the pool", js.id, got)
}
