package export

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datacron/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fixedRegistry builds the deterministic registry behind the golden test:
// a ManualClock advanced by exactly 10s, counters, gauges and a histogram
// with explicit bounds.
func fixedRegistry() *obs.Registry {
	clk := obs.NewManualClock(epoch)
	r := obs.NewRegistry(clk)
	r.Counter("core.records").Add(1500)
	r.Gauge("flow.level").Set(2)
	r.Gauge("msg.lag.realtime/surveillance.raw").Set(42)
	r.Gauge("health.watermark.status").Set(0)
	h := r.Histogram("checkpoint.capture.seconds", 0.001, 0.01, 0.1, 1)
	for _, v := range []float64{0.0004, 0.002, 0.003, 0.02, 0.5, 3} {
		h.Observe(v)
	}
	clk.Advance(10 * time.Second)
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fixedRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
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
		t.Errorf("exposition output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestPrometheusExpositionShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fixedRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE core_records_total counter",
		"core_records_total 1500",
		`msg_lag{group="realtime",topic="surveillance.raw"} 42`,
		`health_status{component="watermark"} 0`,
		"# TYPE checkpoint_capture_seconds histogram",
		`checkpoint_capture_seconds_bucket{le="0.001"} 1`,
		`checkpoint_capture_seconds_bucket{le="0.01"} 3`,
		`checkpoint_capture_seconds_bucket{le="0.1"} 4`,
		`checkpoint_capture_seconds_bucket{le="1"} 5`,
		`checkpoint_capture_seconds_bucket{le="+Inf"} 6`,
		"checkpoint_capture_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, even though several internal metrics map
	// onto the labelled msg_lag family.
	if got := strings.Count(out, "# TYPE msg_lag gauge"); got != 1 {
		t.Errorf("msg_lag TYPE lines = %d, want 1", got)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	clk := obs.NewManualClock(epoch)
	r := obs.NewRegistry(clk)
	r.Gauge("msg.lag.g/C:\\tmp").Set(1)
	r.Gauge("msg.lag.g/say \"hi\"\nbye").Set(2)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Label values escape backslash, quote and newline.
	if !strings.Contains(out, `msg_lag{group="g",topic="C:\\tmp"} 1`) || !strings.Contains(out, `msg_lag{group="g",topic="say \"hi\"\nbye"} 2`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	if strings.Contains(out, "\nbye") {
		t.Errorf("raw newline leaked into exposition:\n%q", out)
	}
}

func TestHistogramMergeThenRender(t *testing.T) {
	// Two workers' histograms merged, then rendered: bucket cumulative
	// counts, sum and count must reflect the element-wise sum.
	mk := func(vals ...float64) obs.HistogramSnapshot {
		clk := obs.NewManualClock(epoch)
		r := obs.NewRegistry(clk)
		h := r.Histogram("flush.seconds", 1, 10)
		for _, v := range vals {
			h.Observe(v)
		}
		hs, ok := r.Snapshot().Histogram("flush.seconds")
		if !ok {
			t.Fatal("histogram missing from snapshot")
		}
		return hs
	}
	merged, err := mk(0.5, 5).Merge(mk(0.5, 20))
	if err != nil {
		t.Fatal(err)
	}
	s := obs.Snapshot{At: epoch, Histograms: []obs.HistogramSnapshot{merged}}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`flush_seconds_bucket{le="1"} 2`,
		`flush_seconds_bucket{le="10"} 3`,
		`flush_seconds_bucket{le="+Inf"} 4`,
		"flush_seconds_sum 26",
		"flush_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged render missing %q:\n%s", want, out)
		}
	}
}

func TestNonFiniteSanitised(t *testing.T) {
	clk := obs.NewManualClock(epoch)
	r := obs.NewRegistry(clk)
	r.Gauge("bad.nan").Set(math.NaN())
	r.Gauge("bad.inf").Set(math.Inf(1))
	r.Counter("events").Add(7)
	r.Histogram("empty.seconds", 1, 2) // zero observations: Mean() is NaN
	s := r.Snapshot()                  // Elapsed == 0: rates would divide by zero

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "Inf "} {
		if strings.Contains(buf.String(), bad) {
			t.Errorf("exposition contains %q:\n%s", bad, buf.String())
		}
	}

	jb, err := json.Marshal(JSONSnapshot(s))
	if err != nil {
		t.Fatalf("JSON over non-finite snapshot: %v", err)
	}
	var decoded SnapshotJSON
	if err := json.Unmarshal(jb, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(decoded.Histograms) != 1 || decoded.Histograms[0].Mean != 0 {
		t.Errorf("empty-histogram mean must sanitise to 0, got %+v", decoded.Histograms)
	}
	for _, c := range decoded.Counters {
		if c.RatePerSec != 0 {
			t.Errorf("zero-window JSON rate = %v, want 0", c.RatePerSec)
		}
	}
}

func TestJSONSnapshotValues(t *testing.T) {
	s := fixedRegistry().Snapshot()
	j := JSONSnapshot(s)
	if j.ElapsedSeconds != 10 {
		t.Fatalf("elapsed = %v, want 10", j.ElapsedSeconds)
	}
	var recs *CounterJSON
	for i := range j.Counters {
		if j.Counters[i].Name == "core.records" {
			recs = &j.Counters[i]
		}
	}
	if recs == nil || recs.Value != 1500 || recs.RatePerSec != 150 {
		t.Fatalf("core.records JSON row = %+v", recs)
	}
	if len(j.Histograms) != 1 || j.Histograms[0].Count != 6 {
		t.Fatalf("histogram rows = %+v", j.Histograms)
	}
	buckets := j.Histograms[0].Buckets
	if buckets[len(buckets)-1].LE != "+Inf" || buckets[len(buckets)-1].Cumulative != 6 {
		t.Fatalf("overflow bucket = %+v", buckets[len(buckets)-1])
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"core.records":     "core_records",
		"9lives":           "_9lives",
		"ok_name:colon":    "ok_name:colon",
		"sp ace-dash/path": "sp_ace_dash_path",
		"":                 "_",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
