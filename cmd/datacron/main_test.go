package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGracefulShutdown drives the SIGINT/SIGTERM path: a cancelled context
// (what signal.NotifyContext produces on a signal) must make run capture a
// final checkpoint, shut the admin server down, print a last stats dump,
// and return nil so the process exits 0.
func TestGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the recovery loop notices before its first poll

	dir := t.TempDir()
	var out bytes.Buffer
	o := options{
		domain: "maritime", duration: 30 * time.Minute, vessels: 4, seed: 1,
		adminAddr:    "127.0.0.1:0",
		ckptDir:      dir,
		ckptInterval: time.Second,
	}
	if err := run(ctx, o, &out); err != nil {
		t.Fatalf("interrupted run must exit cleanly, got: %v", err)
	}

	got := out.String()
	for _, want := range []string{
		"admin server listening on 127.0.0.1:",
		"interrupt: shutting down gracefully",
		"final checkpoint captured",
		"partial summary:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "batch layer") {
		t.Error("interrupted run must not proceed to the batch layer")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("final checkpoint left no files in the checkpoint directory")
	}
}

// TestRunCompletes checks the normal end-to-end path still works with the
// admin server attached and structured logging configured, and that the
// server outlives the run: it still answers after the run has printed its
// results, until the context is cancelled, and run then returns nil.
func TestRunCompletes(t *testing.T) {
	var out syncBuffer
	o := options{
		domain: "maritime", duration: 30 * time.Minute, vessels: 4, seed: 1,
		adminAddr: "127.0.0.1:0",
		logLevel:  "error", logFormat: "text",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, &out) }()

	var addr string
	for deadline := time.Now().Add(time.Minute); addr == ""; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run returned %v before the context was cancelled:\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reported the admin server still serving:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "run complete; admin server still serving on "); ok {
				addr, _, _ = strings.Cut(rest, " ")
			}
		}
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("admin server after the run: %v", err)
	}
	resp.Body.Close()

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"real-time layer", "batch layer", "dashboard:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "interrupt:") {
		t.Errorf("a stop after the run completed took the interrupt path:\n%s", got)
	}
}

// syncBuffer is a bytes.Buffer a test may read while run writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestBadFlags checks option validation fails fast.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), options{domain: "submarine"}, &out); err == nil {
		t.Error("unknown domain must fail")
	}
	o := options{domain: "aviation", flights: 1, logLevel: "loud"}
	if err := run(context.Background(), o, &out); err == nil {
		t.Error("bad -log-level must fail")
	}
}

// TestSLOStages: an SLO armed on a stage whose lag family the run does not
// register is refused as a usage error, and every stage -slo-stage accepts
// has its family in a short run's merged metrics, so the list cannot drift
// from what the pipeline registers.
func TestSLOStages(t *testing.T) {
	var out bytes.Buffer
	for _, stage := range []string{"process", "queue", "ingest.bulk", ""} {
		o := options{domain: "maritime", duration: 30 * time.Minute, vessels: 4, seed: 1,
			sloLag: time.Second, sloStage: stage}
		if err := run(context.Background(), o, &out); !errors.Is(err, errUsage) {
			t.Errorf("-slo-stage %q: err = %v, want a usage error", stage, err)
		}
	}

	out.Reset()
	o := options{domain: "maritime", duration: 30 * time.Minute, vessels: 4, seed: 1,
		queueCap: 4096, overloadPolicy: "block", metrics: true}
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatal(err)
	}
	for _, stage := range sloStages(o.queueCap) {
		if !strings.Contains(out.String(), "hist    lag."+stage+".seconds ") {
			t.Errorf("accepted -slo-stage %s, but the run's metrics have no lag.%s.seconds:\n%s", stage, stage, out.String())
		}
	}
}

// TestMetricsCompressionMatchesSummary checks that -metrics prints the
// run's compression ratio, the one its summary line reports, at a shard
// count where a per-shard reading would differ from the whole run's.
func TestMetricsCompressionMatchesSummary(t *testing.T) {
	var out bytes.Buffer
	o := options{
		domain: "maritime", duration: 2 * time.Hour, vessels: 16, seed: 1,
		shards: 4, metrics: true,
	}
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatal(err)
	}
	var summaryPct, ratio float64
	for _, line := range strings.Split(out.String(), "\n") {
		if _, rest, ok := strings.Cut(line, "(compression "); ok && summaryPct == 0 {
			if _, err := fmt.Sscanf(rest, "%g%%", &summaryPct); err != nil {
				t.Fatalf("summary line %q: %v", line, err)
			}
		}
		if _, rest, ok := strings.Cut(line, "compression ratio "); ok {
			if _, err := fmt.Sscanf(rest, "%g", &ratio); err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
		}
	}
	if summaryPct == 0 || ratio == 0 {
		t.Fatalf("missing summary compression or metrics ratio:\n%s", out.String())
	}
	if got, want := fmt.Sprintf("%.1f", ratio*100), fmt.Sprintf("%.1f", summaryPct); got != want {
		t.Errorf("-metrics compression ratio %.3f (%s%%) disagrees with the summary's %s%%", ratio, got, want)
	}
}

// TestVerboseProfiles: -v prints one trajectory profile line per mover, in
// ID order, whose speed statistics are ordered as statistics must be.
func TestVerboseProfiles(t *testing.T) {
	var out bytes.Buffer
	o := options{domain: "maritime", duration: 30 * time.Minute, vessels: 4, seed: 1, verbose: true}
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "  profile ") {
			continue
		}
		var id string
		var min, mean, median, max, accel float64
		if _, err := fmt.Sscanf(line, "  profile %s speed min/mean/median/max %f/%f/%f/%f kn, acceleration mean %f m/s²",
			&id, &min, &mean, &median, &max, &accel); err != nil {
			t.Fatalf("profile line %q: %v", line, err)
		}
		if !(min <= mean && mean <= max && min <= median && median <= max) {
			t.Errorf("profile line %q: statistics out of order", line)
		}
		ids = append(ids, strings.TrimSuffix(id, ":"))
	}
	want := []string{"mmsi-0000", "mmsi-0001", "mmsi-0002", "mmsi-0003"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("profiled movers %v, want %v:\n%s", ids, want, out.String())
	}
}

// TestVerboseStageLine: -v prints one stage line whose stage shares add up
// to the whole loop, and one busy share per worker.
func TestVerboseStageLine(t *testing.T) {
	var out bytes.Buffer
	o := options{domain: "maritime", duration: 30 * time.Minute, vessels: 4, seed: 1, shards: 2, verbose: true}
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "stages over ") {
			line = l
		}
	}
	stages, rest, ok := strings.Cut(line, "; merge wait ")
	if !ok {
		t.Fatalf("no stage line:\n%s", out.String())
	}
	var sum float64
	for _, name := range stageNames {
		var share float64
		if _, err := fmt.Sscanf(stages[strings.Index(stages, " "+name+" "):], " "+name+" %f%%", &share); err != nil {
			t.Fatalf("stage %s in %q: %v", name, line, err)
		}
		sum += share
	}
	if sum < 99 || sum > 101 {
		t.Errorf("stage shares add up to %.1f%%, want 100: %q", sum, line)
	}
	if _, busy, _ := strings.Cut(rest, "worker busy"); strings.Count(busy, ":") != 2 {
		t.Errorf("want a busy share for each of 2 workers: %q", line)
	}
}
