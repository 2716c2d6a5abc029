package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datacron/internal/admin"
	"datacron/internal/obs"
	"datacron/internal/obs/export"
)

var update = flag.Bool("update", false, "rewrite golden files")

// surfacePipeline runs a fixed small maritime workload (the first 3 000
// reports, link discovery on, two shards) on a ManualClock advanced by
// exactly 10s, so every admin surface renders the same bytes on every run.
func surfacePipeline(t *testing.T) *Pipeline {
	t.Helper()
	clk := obs.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p, reports := shardedMaritimePipeline(t, false, 2, WithClock(clk))
	if err := p.Ingest(context.Background(), reports[:3000]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	return p
}

// checkGolden compares got with testdata/<name>, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s", name, got)
	}
}

// TestStatzGolden pins the /statz document byte for byte, served by an
// admin server wired to the pipeline's stats the way WithAdmin wires it.
func TestStatzGolden(t *testing.T) {
	p := surfacePipeline(t)
	srv := admin.New(admin.Config{
		Addr:     "127.0.0.1:0",
		Registry: p.Obs(),
		Snapshot: p.MergedSnapshot,
		Statz:    func() any { return p.Stats() },
		SLO:      p.slos.Status,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	code, body := getURL(t, "http://"+srv.Addr()+"/statz")
	if code != 200 {
		t.Fatalf("/statz = %d", code)
	}
	checkGolden(t, "statz.golden", []byte(body))
}

// TestPrometheusGolden pins the /metrics exposition of the same run,
// rendered from the merged snapshot as the admin server renders it.
func TestPrometheusGolden(t *testing.T) {
	p := surfacePipeline(t)
	var buf bytes.Buffer
	if err := export.WritePrometheus(&buf, p.MergedSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.golden", buf.Bytes())
}
