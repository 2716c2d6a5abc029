package admin

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"datacron/internal/health"
	"datacron/internal/obs"
	"datacron/internal/obs/export"
	"datacron/internal/obs/slo"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// start spins up a fully wired admin server on a loopback ephemeral port
// and returns its pieces plus a cleanup-registered base URL.
func start(t *testing.T) (*obs.ManualClock, *obs.Registry, *obs.Tracer, *health.Watchdog, string) {
	t.Helper()
	clk := obs.NewManualClock(epoch)
	reg := obs.NewRegistry(clk)
	tr := obs.NewTracer(clk, 16)
	w := health.NewWatchdog(reg)
	srv := New(Config{
		Addr: "127.0.0.1:0", Registry: reg, Tracer: tr, Watchdog: w,
		Snapshot: reg.Snapshot,
		Statz:    func() any { return export.JSONSnapshot(reg.Snapshot()) },
		SLO:      noObjectives,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return clk, reg, tr, w, "http://" + srv.Addr()
}

// noObjectives is the SLO source of a pipeline without armed objectives.
func noObjectives() []slo.Status { return nil }

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	clk, reg, _, _, base := start(t)
	reg.Counter("core.records").Add(420)
	clk.Advance(10 * time.Second)

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != export.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE core_records_total counter",
		"core_records_total 420",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestStatzEndpoint(t *testing.T) {
	clk, reg, _, _, base := start(t)
	reg.Counter("core.records").Add(100)
	clk.Advance(time.Second)

	code, body, hdr := get(t, base+"/statz")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var s export.SnapshotJSON
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("statz is not a snapshot: %v\n%s", err, body)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 100 || s.Counters[0].RatePerSec != 100 {
		t.Fatalf("statz counters = %+v", s.Counters)
	}
}

func TestProbesFollowWatchdog(t *testing.T) {
	clk, reg, _, w, base := start(t)

	// Before any tick: ready and live by default.
	if code, _, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz pre-tick = %d", code)
	}
	if code, _, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz pre-tick = %d", code)
	}

	// Inject a stalled watermark: input advances, watermark frozen.
	reg.Counter("core.records").Add(10)
	reg.Gauge("core.watermark.unixsec").Set(float64(epoch.Unix()))
	w.Tick()
	clk.Advance(time.Second)
	reg.Counter("core.records").Add(10)
	w.Tick() // ONE tick after the fault

	code, body, _ := get(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with stalled watermark = %d, want 503", code)
	}
	var probe struct {
		Live       bool            `json:"live"`
		Ready      bool            `json:"ready"`
		Components []health.Result `json:"components"`
	}
	if err := json.Unmarshal([]byte(body), &probe); err != nil {
		t.Fatalf("readyz body: %v\n%s", err, body)
	}
	if probe.Ready || probe.Live || len(probe.Components) == 0 {
		t.Fatalf("probe body = %+v", probe)
	}
	if code, _, _ := get(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with stalled watermark = %d, want 503", code)
	}

	// Watermark recovers; probes flip back on the next tick.
	clk.Advance(time.Second)
	reg.Counter("core.records").Add(10)
	reg.Gauge("core.watermark.unixsec").Set(float64(epoch.Unix()) + 2)
	w.Tick()
	if code, _, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d", code)
	}
}

func TestTracesEndpoint(t *testing.T) {
	clk, _, tr, _, base := start(t)
	sp := tr.Start("poll")
	clk.Advance(250 * time.Millisecond)
	sp.End()

	code, body, _ := get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var out struct {
		Spans []struct {
			ID              int64   `json:"id"`
			Name            string  `json:"name"`
			DurationSeconds float64 `json:"durationSeconds"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("traces body: %v\n%s", err, body)
	}
	if len(out.Spans) != 1 || out.Spans[0].Name != "poll" || out.Spans[0].ID == 0 || out.Spans[0].DurationSeconds != 0.25 {
		t.Fatalf("spans = %+v", out.Spans)
	}
}

// TestTracesSpanTreeEndpoint drives a sampled record tree through the ring
// and reads it back both flat (parent links and attrs on every span) and
// nested (?span_tree=1 reconstructs the hierarchy, children in completion
// order).
func TestTracesSpanTreeEndpoint(t *testing.T) {
	clk, _, tr, _, base := start(t)
	root := tr.StartSpan("record", obs.Attr{Key: "mover", Value: "m1"})
	clk.Advance(time.Millisecond)
	decode := root.Child("decode", obs.Attr{Key: "shard", Value: "0"})
	clk.Advance(2 * time.Millisecond)
	decode.End()
	root.Child("emit").End()
	root.End()

	// Flat view: completion order, parent IDs and attrs on the wire.
	code, body, _ := get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	var flat struct {
		Spans []export.SpanJSON `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &flat); err != nil {
		t.Fatalf("traces body: %v\n%s", err, body)
	}
	if len(flat.Spans) != 3 || flat.Spans[2].Name != "record" {
		t.Fatalf("flat spans = %+v", flat.Spans)
	}
	if flat.Spans[0].Parent != flat.Spans[2].ID || flat.Spans[0].Attrs["shard"] != "0" {
		t.Fatalf("flat decode span lost parent or attrs: %+v", flat.Spans[0])
	}

	// Nested view: one root with both children under it.
	code, body, _ = get(t, base+"/traces?span_tree=1")
	if code != http.StatusOK {
		t.Fatalf("/traces?span_tree=1 = %d", code)
	}
	var nested struct {
		SpanTrees []*export.SpanJSON `json:"spanTrees"`
	}
	if err := json.Unmarshal([]byte(body), &nested); err != nil {
		t.Fatalf("span_tree body: %v\n%s", err, body)
	}
	if len(nested.SpanTrees) != 1 {
		t.Fatalf("got %d roots, want 1:\n%s", len(nested.SpanTrees), body)
	}
	tree := nested.SpanTrees[0]
	if tree.Name != "record" || tree.Attrs["mover"] != "m1" || len(tree.Children) != 2 {
		t.Fatalf("tree = %+v", tree)
	}
	if tree.Children[0].Name != "decode" || tree.Children[1].Name != "emit" {
		t.Fatalf("children out of completion order: %s, %s",
			tree.Children[0].Name, tree.Children[1].Name)
	}
	if tree.Children[0].DurationSeconds != 0.002 {
		t.Errorf("decode duration = %v, want 0.002", tree.Children[0].DurationSeconds)
	}
}

// TestTracesWraparoundOldestFirst pins the endpoint's ordering contract:
// after the ring wraps, /traces still serves completion order, oldest span
// first.
func TestTracesWraparoundOldestFirst(t *testing.T) {
	_, _, tr, _, base := start(t) // ring size 16
	for i := 0; i < 25; i++ {
		tr.Start("s").End()
	}
	_, body, _ := get(t, base+"/traces")
	var out struct {
		Spans []export.SpanJSON `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 16 {
		t.Fatalf("served %d spans, want the full 16-span ring", len(out.Spans))
	}
	for i, sp := range out.Spans {
		if want := int64(10 + i); sp.ID != want {
			t.Fatalf("spans[%d].ID = %d, want %d (oldest-first across wraparound)", i, sp.ID, want)
		}
	}
}

// TestSLOEndpoint checks both shapes of /slo: an empty objectives array
// when no objective is armed, and the full standing when one is.
func TestSLOEndpoint(t *testing.T) {
	_, _, _, _, base := start(t) // no objective armed
	code, body, hdr := get(t, base+"/slo")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/slo without objectives = %d, content type %q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, `"objectives": []`) {
		t.Fatalf("/slo without objectives must serve an empty array:\n%s", body)
	}

	reg := obs.NewRegistry(obs.NewManualClock(epoch))
	srv := New(Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Snapshot: reg.Snapshot,
		Statz:    func() any { return nil },
		SLO: func() []slo.Status {
			return []slo.Status{{
				Name: "predict-freshness", Family: "lag.predict.seconds",
				Quantile: 0.99, ThresholdSeconds: 5, WindowSeconds: 60,
				Current: 7.25, Violated: true, Windows: 4, Violations: 1,
				Streak: 1, BudgetBurn: 0.25,
			}}
		},
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	_, body, _ = get(t, "http://"+srv.Addr()+"/slo")
	var doc struct {
		Objectives []slo.Status `json:"objectives"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/slo body: %v\n%s", err, body)
	}
	if len(doc.Objectives) != 1 {
		t.Fatalf("objectives = %+v", doc.Objectives)
	}
	st := doc.Objectives[0]
	if st.Name != "predict-freshness" || !st.Violated || st.BudgetBurn != 0.25 || st.Current != 7.25 {
		t.Fatalf("objective round-trip lost fields: %+v", st)
	}
}

// TestMetricsIncludeRuntime checks the scrape-sampled process self-metrics
// ride the same exposition as the pipeline metrics.
func TestMetricsIncludeRuntime(t *testing.T) {
	_, _, _, _, base := start(t)
	_, body, _ := get(t, base+"/metrics")
	for _, want := range []string{
		"runtime_goroutines",
		"runtime_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestPprofAndIndex(t *testing.T) {
	_, _, _, _, base := start(t)
	if code, body, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %d", code)
	}
	if code, body, _ := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d\n%s", code, body)
	}
	if code, _, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

func TestStatzOverrideAndNilSafety(t *testing.T) {
	reg := obs.NewRegistry(obs.NewManualClock(epoch))
	srv := New(Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Snapshot: reg.Snapshot,
		Statz:    func() any { return map[string]string{"custom": "payload"} },
		SLO:      noObjectives,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	base := "http://" + srv.Addr()
	if _, body, _ := get(t, base+"/statz"); !strings.Contains(body, `"custom": "payload"`) {
		t.Fatalf("statz document not served:\n%s", body)
	}
	// Nil tracer and watchdog degrade gracefully.
	if code, body, _ := get(t, base+"/traces"); code != http.StatusOK || !strings.Contains(body, `"spans": []`) {
		t.Fatalf("traces with nil tracer = %d\n%s", code, body)
	}
	if code, _, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz with nil watchdog = %d", code)
	}

	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Shutdown(context.Background()) != nil {
		t.Fatal("nil server must be a benign no-op")
	}
}

func TestShutdownUnblocksStart(t *testing.T) {
	reg := obs.NewRegistry(obs.NewManualClock(epoch))
	srv := New(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
	// Shutdown before Start is a no-op.
	if err := New(Config{Addr: "127.0.0.1:0", Registry: reg}).Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOverride pins the Config.Snapshot hook the sharded pipeline
// uses: /metrics must read the metric state through it (the merged
// main+per-shard view) rather than the raw registry.
func TestSnapshotOverride(t *testing.T) {
	clk := obs.NewManualClock(epoch)
	reg := obs.NewRegistry(clk)
	reg.Counter("core.records").Add(10)
	shardReg := obs.NewRegistry(obs.NewManualClock(epoch))
	shardReg.Counter("core.records").Add(32)

	srv := New(Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Snapshot: func() obs.Snapshot {
			return reg.Snapshot().Merge(shardReg.Snapshot().Prefixed("shard.0."))
		},
		Statz: func() any { return nil },
		SLO:   noObjectives,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	_, body, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "shard_0_core_records") {
		t.Errorf("/metrics missing the override's per-shard series:\n%s", body)
	}
}
