// Package core implements the three joins under test (Section 5.1.1):
//
//   - RJ: the radix-partitioned join with two-pass morsel-driven
//     partitioning, software write-combine buffers, worker-local output,
//     per-partition robin-hood hash tables, and work stealing.
//   - BRJ: the radix join with the register-blocked Bloom-filter semi-join
//     reducer built during the build side's second partitioning pass and
//     probed in the pipeline before the probe side is partitioned.
//   - BHJ: the buffered non-partitioned hash join with a global chaining
//     hash table, tagged-pointer semi-join reduction, and relaxed-operator-
//     fusion batch staging.
//
// All three operate on the same packed row representation and plug into the
// pipeline engine of internal/exec, so a query plan can swap one for another
// exactly as the paper's system does.
package core

// Config tunes the radix joins. The defaults mirror the paper's setup
// scaled to the partition-fits-in-cache invariant.
type Config struct {
	// CacheBudget is the target size of one build-side partition: the
	// total radix fan-out is chosen so a partition's hash table fits in
	// this many bytes (Section 3: "each partition is sized so that the
	// hash table fits in the cache").
	CacheBudget int

	// Pass1Bits is the fan-out of the first partitioning pass in bits.
	// It caps the number of streams written concurrently per worker at
	// 2^Pass1Bits, the TLB-entry limit radix partitioning exists to
	// respect (Boncz et al.).
	Pass1Bits int

	// MaxPass2Bits caps the second pass fan-out for the same reason.
	MaxPass2Bits int

	// MinTotalBits floors the total fan-out; the paper's RJ always
	// partitions, which is exactly why it loses on cache-resident builds.
	MinTotalBits int

	// SWWCBBytes is the size of one software write-combine buffer. Must
	// be a multiple of 64 (a cache line); tuples wider than the buffer
	// are written directly, matching the paper's "no buffers for tuples
	// larger than 64 B" rule scaled to the buffer size.
	SWWCBBytes int

	// Bloom enables the semi-join reducer (turns RJ into BRJ).
	Bloom bool

	// AdaptiveBloom samples the filter pass rate and disables the filter
	// when almost all tuples pass (Section 5.4.1).
	AdaptiveBloom bool

	// BloomSample is the number of probe tuples sampled per worker
	// before the adaptive decision.
	BloomSample int

	// BloomDisableRate is the pass-rate threshold above which the
	// adaptive filter switches off.
	BloomDisableRate float64
}

// probeStage is the software prefetch distance of both probe loops (the
// radix join phase and the BHJ probe): probe rows are hashed in groups of
// this size and each group's first hash-table load is issued before any
// row's walk starts, so the random cache misses of a group overlap instead
// of serializing (group prefetching in the AMAC/NOCAP sense — Go has no
// prefetch intrinsic, so the staged loads themselves provide the
// memory-level parallelism). The group's buffers stay in registers/L1.
const probeStage = 16

// DefaultConfig returns the tuning used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		CacheBudget:      512 << 10,
		Pass1Bits:        6,
		MaxPass2Bits:     8,
		MinTotalBits:     2,
		SWWCBBytes:       256,
		Bloom:            false,
		AdaptiveBloom:    false,
		BloomSample:      4096,
		BloomDisableRate: 0.9,
	}
}

// JoinKind enumerates the equi-join variants every implementation supports
// (Section 1: "including outer-, mark-, semi-, and anti-joins").
type JoinKind uint8

const (
	// Inner emits the concatenation of matching build and probe tuples.
	Inner JoinKind = iota
	// Semi emits each probe tuple that has at least one build match.
	Semi
	// Anti emits each probe tuple that has no build match.
	Anti
	// Mark emits every probe tuple extended with a 0/1 match flag.
	Mark
	// LeftOuter emits Inner plus each unmatched build tuple padded with
	// zero probe columns.
	LeftOuter
	// RightOuter emits Inner plus each unmatched probe tuple padded with
	// zero build columns.
	RightOuter
	// LeftSemi emits each build tuple with at least one probe match,
	// exactly once (EXISTS rewrites with the small side as build, e.g.
	// TPC-H Q4 and Q21 join 4).
	LeftSemi
	// LeftAnti emits each build tuple with no probe match (NOT EXISTS
	// rewrites, e.g. Q21 join 5 and Q22's anti join).
	LeftAnti
)

// String implements fmt.Stringer.
func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "inner"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	case Mark:
		return "mark"
	case LeftOuter:
		return "leftouter"
	case RightOuter:
		return "rightouter"
	case LeftSemi:
		return "leftsemi"
	case LeftAnti:
		return "leftanti"
	}
	return "join?"
}
