package export

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datacron/internal/obs"
)

// lagRegistry builds one shard's worth of freshness families on a
// ManualClock: a lag histogram plus its freshness-watermark gauge.
func lagRegistry(lags ...time.Duration) *obs.Registry {
	clk := obs.NewManualClock(epoch)
	r := obs.NewRegistry(clk)
	stage := obs.NewLagStage(r, "decode")
	now := clk.Now()
	for _, lag := range lags {
		stage.Observe(now, now.Add(-lag))
	}
	clk.Advance(10 * time.Second)
	return r
}

// TestLagFamilyMergeThenRenderGolden pins the cross-shard merge contract
// for the freshness plane end to end: two shard registries merged into the
// coordinator's view (histogram buckets summed, the .max_seconds watermark
// taking the max, per-shard labelled copies kept) and rendered to the
// Prometheus exposition byte for byte.
func TestLagFamilyMergeThenRenderGolden(t *testing.T) {
	main := lagRegistry() // coordinator: no decode observations of its own
	shard0 := lagRegistry(50*time.Millisecond, 200*time.Millisecond)
	shard1 := lagRegistry(2 * time.Second)

	merged := main.Snapshot()
	for i, reg := range []*obs.Registry{shard0, shard1} {
		snap := reg.Snapshot()
		merged = merged.Merge(snap)
		merged = merged.Merge(snap.Prefixed([]string{"shard.0.", "shard.1."}[i]))
	}

	// The aggregate histogram sums the shards; the watermark takes the max.
	h, ok := merged.Histogram("lag.decode.seconds")
	if !ok || h.Count != 3 {
		t.Fatalf("merged lag.decode.seconds = %+v, want 3 observations", h)
	}
	if mark, _ := merged.Gauge("lag.decode.max_seconds"); mark != 2 {
		t.Fatalf("merged watermark = %v, want max 2 (not shard 1's last-write)", mark)
	}
	if _, ok := merged.Histogram("shard.1.lag.decode.seconds"); !ok {
		t.Fatal("per-shard labelled lag family missing after merge")
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, merged); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "lag_merge.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("merged lag exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Spot-check the shape the golden pins.
	for _, line := range []string{
		"lag_decode_max_seconds 2",
		"lag_decode_seconds_count 3",
		"shard_0_lag_decode_seconds_count 2",
		"shard_1_lag_decode_max_seconds 2",
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("exposition missing %q", line)
		}
	}
}
