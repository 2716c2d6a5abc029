package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/mobility"
	"datacron/internal/obs"
	"datacron/internal/obs/export"
)

// adminGet fetches a path from the pipeline's admin server.
func adminGet(t *testing.T, p *Pipeline, path string) (int, string) {
	t.Helper()
	return getURL(t, "http://"+p.Admin().Addr()+path)
}

// getURL fetches a URL and returns its status and body.
func getURL(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminServesPipeline runs a small scenario through a pipeline built
// with WithAdmin and checks the whole operational plane: valid Prometheus
// exposition of real pipeline metrics, the /statz document, trace spans
// from the run, and a clean Shutdown.
func TestAdminServesPipeline(t *testing.T) {
	p, err := New(
		WithConfig(Config{Domain: mobility.Maritime}),
		WithAdmin("127.0.0.1:0"),
		WithWatchdogInterval(time.Hour), // ticked manually below
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(context.Background())
	if p.Admin() == nil || p.Admin().Addr() == "" || p.Watchdog() == nil {
		t.Fatal("WithAdmin must start the server and watchdog")
	}

	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed:   7,
		Region: gen.AegeanRegion,
		Counts: map[gen.VesselClass]int{gen.Cargo: 2},
	})
	if err := p.Ingest(context.Background(), sim.Run(30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body := adminGet(t, p, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE core_records_total counter",
		"# TYPE core_watermark_unixsec gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = adminGet(t, p, "/statz")
	if code != http.StatusOK {
		t.Fatalf("/statz = %d", code)
	}
	var statz struct {
		Metrics export.SnapshotJSON `json:"metrics"`
		Summary Summary             `json:"summary"`
	}
	if err := json.Unmarshal([]byte(body), &statz); err != nil {
		t.Fatalf("/statz does not decode: %v", err)
	}
	if statz.Summary.RawIn == 0 || len(statz.Metrics.Counters) == 0 {
		t.Fatalf("/statz payload empty: %+v", statz.Summary)
	}

	code, body = adminGet(t, p, "/traces")
	if code != http.StatusOK || !strings.Contains(body, `"name": "poll"`) {
		t.Fatalf("/traces = %d, body:\n%s", code, body)
	}

	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + p.Admin().Addr() + "/metrics"); err == nil {
		t.Fatal("admin server still serving after Shutdown")
	}
}

// TestReadyzFlipsWithinOneTick injects a stalled-watermark fault into the
// registry of an admin-enabled pipeline and checks /readyz flips to 503
// after exactly one manual watchdog tick — the acceptance criterion for the
// health model.
func TestReadyzFlipsWithinOneTick(t *testing.T) {
	clk := obs.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p, err := New(
		WithClock(clk),
		WithAdmin("127.0.0.1:0"),
		WithWatchdogInterval(time.Hour), // ticked manually
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(context.Background())
	reg, w := p.Obs(), p.Watchdog()

	reg.Counter("core.records").Add(10)
	reg.Gauge("core.watermark.unixsec").Set(float64(clk.Now().Unix()))
	w.Tick() // baseline
	if code, _ := adminGet(t, p, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz baseline = %d", code)
	}

	// Fault: records advance, watermark frozen.
	clk.Advance(time.Second)
	reg.Counter("core.records").Add(10)
	w.Tick() // ONE tick after the fault
	code, body := adminGet(t, p, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after one tick = %d, want 503; body:\n%s", code, body)
	}
	if !strings.Contains(body, "watermark") {
		t.Fatalf("/readyz body must name the failing component:\n%s", body)
	}
	if code, _ := adminGet(t, p, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatal("/healthz must also fail on an unhealthy component")
	}

	// Growing consumer lag is the second injected fault class.
	clk.Advance(time.Second)
	reg.Gauge("core.watermark.unixsec").Set(float64(clk.Now().Unix()))
	reg.Gauge("msg.lag.realtime/surveillance.raw").Set(1)
	w.Tick()
	clk.Advance(time.Second)
	reg.Gauge("core.watermark.unixsec").Set(float64(clk.Now().Unix()))
	reg.Gauge("msg.lag.realtime/surveillance.raw").Set(100)
	w.Tick()
	if code, body := adminGet(t, p, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "lag") {
		t.Fatalf("/readyz with growing lag = %d, body:\n%s", code, body)
	}
}

// TestAdminRequiresMetrics checks the WithAdmin/WithObs(nil) conflict is
// rejected at construction.
func TestAdminRequiresMetrics(t *testing.T) {
	if _, err := New(WithObs(nil), WithAdmin("127.0.0.1:0")); err == nil {
		t.Fatal("WithAdmin with metrics disabled must fail")
	}
}
