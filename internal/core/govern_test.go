package core

import (
	"strings"
	"testing"

	"partitionjoin/internal/govern"
)

// TestGovernorShedsFanoutBits exercises the runtime rung of the degradation
// ladder: with a memory budget too tight for the cache-optimal second-pass
// fan-out, decideBits must shed bits (recording the decision) while the
// partitioning stays a correct multiset with matching build/probe fan-outs.
func TestGovernorShedsFanoutBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBudget = 1 << 10 // tiny cache => large cache-optimal fan-out
	const n = 20000

	ref := testJoinPair(cfg)
	driveSink(ref.BuildSink, n, 2, func(i int) int64 { return int64(i) })
	wantB2 := ref.BuildSink.Out.B2
	if wantB2 < 2 {
		t.Fatalf("cache-optimal fan-out too small to degrade (b2=%d)", wantB2)
	}

	j := testJoinPair(cfg)
	// Pass 1 holds the materialized rows once; pass 2 adds, per worker, the
	// scattered copy of one pre-partition. The slack on top is too small
	// for the full fan-out's write-combine buffers and histogram, so at
	// least one second-pass bit must go.
	rowBytes := int64(n) * int64(j.BuildSink.Layout.Size)
	gov := govern.New(rowBytes + 2*(rowBytes>>uint(cfg.Pass1Bits)) + 4096)
	j.Gov = gov
	driveSink(j.BuildSink, n, 2, func(i int) int64 { return int64(i) })

	if j.DegradedBits == 0 {
		t.Fatalf("governor shed no bits (b2=%d, budget %d B)", j.BuildSink.Out.B2, gov.Budget())
	}
	if got := j.BuildSink.Out.B2; got != wantB2-j.DegradedBits {
		t.Fatalf("b2=%d, want %d-%d", got, wantB2, j.DegradedBits)
	}
	degradeNoted := false
	for _, ev := range gov.Events() {
		if strings.Contains(ev, "fan-out reduced") {
			degradeNoted = true
		}
	}
	if !degradeNoted {
		t.Fatalf("no fan-out event recorded: %v", gov.Events())
	}

	// The probe side must reuse the degraded decision so partition pairs
	// still line up.
	driveSink(j.ProbeSink, n, 2, func(i int) int64 { return int64(n - 1 - i) })
	if j.ProbeSink.Out.B2 != j.BuildSink.Out.B2 {
		t.Fatalf("probe b2=%d, build b2=%d", j.ProbeSink.Out.B2, j.BuildSink.Out.B2)
	}

	// Degraded partitioning must still be a correct partitioned multiset.
	for _, out := range []*Partitions{j.BuildSink.Out, j.ProbeSink.Out} {
		if out.Rows != n {
			t.Fatalf("degraded partitioning lost rows: %d of %d", out.Rows, n)
		}
		mask := uint64(out.NumParts() - 1)
		seen := map[int64]bool{}
		for pid := 0; pid < out.NumParts(); pid++ {
			part := partRows(out, pid)
			for off := 0; off < len(part); off += out.Layout.Size {
				if h := out.Layout.Hash(part[off:]); h&mask != uint64(pid) {
					t.Fatalf("row with hash %x in wrong partition %d", h, pid)
				}
				pay := out.Layout.GetI64(part[off:], 1)
				if seen[pay] {
					t.Fatalf("payload %d duplicated", pay)
				}
				seen[pay] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("multiset not preserved: %d of %d", len(seen), n)
		}
	}
	if gov.Peak() <= 0 {
		t.Fatal("governor recorded no usage")
	}
}
