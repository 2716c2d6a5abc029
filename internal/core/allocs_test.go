package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// runAllocs runs the manoeuvre-like pipeline over a simulation of length d
// at the given shard count and returns the heap allocations RunRealTime
// made and the records it applied.
func runAllocs(t *testing.T, shards int, d time.Duration) (allocs uint64, records int64) {
	t.Helper()
	p := manoeuvrePipelineFor(t, shards, d)
	var sum Summary
	var err error
	allocs = mallocsDuring(func() { sum, err = p.RunRealTime(context.Background()) })
	if err != nil {
		t.Fatal(err)
	}
	return allocs, sum.RawIn
}

// TestRunMarginalAllocs: past the run's set-up, the real-time layer
// allocates almost nothing per record, critical points included. The
// fixture is the manoeuvre-like run (CER, weather, link statics; about half
// the records are critical points); the marginal cost is a run over twice
// the span minus a run over the span, per extra record, so set-up cancels.
//
// What is left is the output's own storage, which the broker retains: the
// 32 KiB slabs of N-Triples lines and the 256-entry log segments, ≈0.05
// each per record at this fixture's eight or so output records per input
// record, plus the 1-in-256 sampled traces and the link masks of newly
// probed cells. A merge that allocated once per critical point would read
// ≈0.6 more.
func TestRunMarginalAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a1, n1 := runAllocs(t, shards, 35*time.Minute)
			a2, n2 := runAllocs(t, shards, 70*time.Minute)
			if n2 <= n1 {
				t.Fatalf("the longer run applied %d records, the shorter %d", n2, n1)
			}
			per := (float64(a2) - float64(a1)) / float64(n2-n1)
			t.Logf("%d and %d records: %d and %d allocations, %.4f per extra record", n1, n2, a1, a2, per)
			if per > 0.15 {
				t.Errorf("%.4f allocations per extra record, want at most 0.15", per)
			}
		})
	}
}
