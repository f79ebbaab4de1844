package adapt

import (
	"math/rand"
	"testing"

	"partitionjoin/internal/govern"
	"partitionjoin/internal/hashx"
)

// sampleState returns a join state whose sketch has seen the given hashes.
func sampleState(cfg Config, hashes []uint64) (*Controller, *JoinState) {
	c := NewController(cfg, nil, nil)
	js := c.Join(1)
	for _, h := range hashes {
		js.Sample(h)
	}
	return c, js
}

// uniformHashes returns n well-mixed hashes.
func uniformHashes(n int) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = hashx.I64(int64(i))
	}
	return hs
}

// ChooseBits arguments shared by the cases below: 4 first-pass bits, a
// static second pass of 0 bits, 32-byte rows and a 1 KiB cache budget, so a
// million rows overflow every partition the sketch can resolve.
const (
	testB1     = 4
	testRow    = 32
	testCache  = 1 << 10
	testRows   = 1 << 20
	testStatic = 0
)

func TestChooseBitsKeepsStaticOnUniformHashes(t *testing.T) {
	c, js := sampleState(Config{}, uniformHashes(8192))
	if got := js.ChooseBits(testStatic, testB1, 8, testRow, testRows, testCache); got != testStatic {
		t.Fatalf("uniform hashes widened the fan-out to %d bits, want the static %d", got, testStatic)
	}
	if st := c.Stats(); st.SketchBits != 0 || len(st.Events) != 0 {
		t.Fatalf("uniform hashes recorded a widening: %+v", st)
	}
}

func TestChooseBitsWidensOnSkewUpToMaxB2(t *testing.T) {
	// Half the samples fall into first-pass partition 0 with well-spread
	// higher bits: every further bit halves the hot partition, so only the
	// cap stops the widening.
	rng := rand.New(rand.NewSource(1))
	hs := uniformHashes(4096)
	for i := 0; i < 4096; i++ {
		hs = append(hs, rng.Uint64()&^(1<<testB1-1))
	}
	for _, maxB2 := range []int{1, 3} {
		c, js := sampleState(Config{}, hs)
		if got := js.ChooseBits(testStatic, testB1, maxB2, testRow, testRows, testCache); got != maxB2 {
			t.Fatalf("maxB2 %d: skewed sketch chose %d bits, want the cap", maxB2, got)
		}
		if st := c.Stats(); st.SketchBits != int64(maxB2-testStatic) {
			t.Fatalf("maxB2 %d: %d sketch bits recorded, want %d", maxB2, st.SketchBits, maxB2-testStatic)
		}
	}
}

func TestChooseBitsStopsOnASingleHotKey(t *testing.T) {
	// Half the samples are one key: no further bit spreads them.
	hs := uniformHashes(4096)
	hot := hashx.I64(-7)
	for i := 0; i < 4096; i++ {
		hs = append(hs, hot)
	}
	_, js := sampleState(Config{}, hs)
	if got := js.ChooseBits(testStatic, testB1, 8, testRow, testRows, testCache); got != testStatic {
		t.Fatalf("a single hot key widened the fan-out to %d bits, want the static %d", got, testStatic)
	}
}

func TestChooseBitsAbstainsBelowMinSamples(t *testing.T) {
	// The skewed shape of the widening case, one sample short of MinSamples.
	cfg := Config{MinSamples: 512}
	rng := rand.New(rand.NewSource(2))
	var hs []uint64
	for i := 0; i < 511; i++ {
		hs = append(hs, rng.Uint64()&^(1<<testB1-1))
	}
	_, js := sampleState(cfg, hs)
	if got := js.ChooseBits(testStatic, testB1, 8, testRow, testRows, testCache); got != testStatic {
		t.Fatalf("%d samples widened the fan-out to %d bits, want the static %d", len(hs), got, testStatic)
	}
	js.Sample(hs[0])
	if got := js.ChooseBits(testStatic, testB1, 8, testRow, testRows, testCache); got == testStatic {
		t.Fatal("at MinSamples the skewed sketch still kept the static choice")
	}
}

func TestSplitThreshold(t *testing.T) {
	js := NewController(Config{}, nil, nil).Join(1)
	if got := js.SplitThreshold(1000); got != 4000 {
		t.Fatalf("default split threshold %d, want SplitFactor 4 x budget = 4000", got)
	}
	if got := NewController(Config{SplitFactor: 2.5}, nil, nil).Join(1).SplitThreshold(1000); got != 2500 {
		t.Fatalf("split threshold %d, want 2.5 x 1000", got)
	}
	if got := js.SplitThreshold(0); got != 0 {
		t.Fatalf("no cache budget: threshold %d, want 0 (no splitting)", got)
	}
}

// TestNilJoinStateIsInert: a nil state (adaptation off) answers every call
// with the static behavior and records nothing.
func TestNilJoinStateIsInert(t *testing.T) {
	var c *Controller
	js := c.Join(1)
	if js != nil {
		t.Fatal("a nil controller made a join state")
	}
	js.SetPlanEstimates(10, 20)
	js.Sample(1)
	js.Checkpoint()
	js.BeginMigration(5)
	js.BeginSplit(3, 100, 2)
	js.ShrinkAfterBuild(1 << 30)
	if got := js.EstProbeBytes(); got != 0 {
		t.Errorf("EstProbeBytes = %d", got)
	}
	if got := js.SampleEvery(); got != 0 {
		t.Errorf("SampleEvery = %d, want 0 (no sampling)", got)
	}
	if js.ShouldMigrate(1 << 40) {
		t.Error("ShouldMigrate ordered a migration")
	}
	if got := js.SplitThreshold(1 << 20); got != 0 {
		t.Errorf("SplitThreshold = %d", got)
	}
	if got := js.ChooseBits(3, 6, 8, 32, 1<<30, 1<<10); got != 3 {
		t.Errorf("ChooseBits = %d, want the static 3", got)
	}
	if st := c.Stats(); st.Any() || st.Checkpoints != 0 {
		t.Errorf("nil controller stats %+v", st)
	}
}

// fakePool is a Backing that grants up to avail bytes and takes back
// whatever is returned, recording each request.
type fakePool struct {
	avail          int64
	grows, shrinks []int64
}

func (p *fakePool) TryGrow(n int64) int64 {
	p.grows = append(p.grows, n)
	got := min(n, p.avail)
	p.avail -= got
	return got
}

func (p *fakePool) TryShrink(n int64) int64 {
	p.shrinks = append(p.shrinks, n)
	p.avail += n
	return n
}

func TestShouldMigrateGrowsTheReservationFirst(t *testing.T) {
	pool := &fakePool{avail: 100}
	gov := govern.New(1000)
	gov.SetBacking(pool)
	gov.MustGrant(900)
	c := NewController(Config{}, gov, nil)
	js := c.Join(1)

	if js.ShouldMigrate(100) || len(pool.grows) != 0 {
		t.Fatalf("a build within budget migrated or asked the pool (%v)", pool.grows)
	}
	// 100 B over: the pool covers it, the BHJ carries on.
	if js.ShouldMigrate(200) {
		t.Fatal("migrated although the pool covered the overrun")
	}
	if gov.Budget() != 1100 || len(pool.grows) != 1 || pool.grows[0] != 100 {
		t.Fatalf("budget %d after asking the pool for %v, want 1100 after [100]", gov.Budget(), pool.grows)
	}
	// 100 B over again, but the pool has nothing left: migrate.
	if !js.ShouldMigrate(300) {
		t.Fatal("did not migrate when the pool fell short")
	}
	// The decision holds without asking the pool again.
	if !js.ShouldMigrate(0) || len(pool.grows) != 2 {
		t.Fatalf("migration did not latch (pool asked %v)", pool.grows)
	}
	st := c.Stats()
	if st.ResGrows != 1 || st.GrownBytes != 100 || st.ResDenies != 1 {
		t.Fatalf("stats %+v, want one grow of 100 B and one denial", st)
	}

	// Without a budget nothing ever migrates.
	if NewController(Config{}, govern.New(0), nil).Join(2).ShouldMigrate(1 << 40) {
		t.Fatal("an unbudgeted join migrated")
	}
}

func TestShrinkAfterBuildKeepsSlack(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct {
		name       string
		budget     int64
		remaining  int64
		wantBudget int64
	}{
		// Peak 2 MiB, 1 MiB in use: keep 1.5 x the peak.
		{"after peak", 10 * mib, 0, 3 * mib},
		// The probe side still to come outweighs the peak.
		{"probe to come", 10 * mib, 4 * mib, 15 * mib / 2},
		// Half a MiB to return is under MinShrink: keep the budget.
		{"small excess", 7 * mib / 2, 0, 7 * mib / 2},
	} {
		pool := &fakePool{}
		gov := govern.New(tc.budget)
		gov.SetBacking(pool)
		gov.MustGrant(2 * mib)
		gov.Release(mib)
		c := NewController(Config{}, gov, nil)
		c.Join(1).ShrinkAfterBuild(tc.remaining)
		if gov.Budget() != tc.wantBudget {
			t.Errorf("%s: budget %d, want %d", tc.name, gov.Budget(), tc.wantBudget)
		}
		shrunk := tc.budget - tc.wantBudget
		if st := c.Stats(); st.ShrunkBytes != shrunk || (shrunk == 0) != (len(pool.shrinks) == 0) {
			t.Errorf("%s: shrunk %d B in %v, want %d B", tc.name, st.ShrunkBytes, pool.shrinks, shrunk)
		}
	}
}
