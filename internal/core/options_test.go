package core

import (
	"context"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/obs"
)

func TestNewDefaults(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if p.Obs() == nil {
		t.Fatal("New must attach a metrics registry by default")
	}
	if p.Tracer() == nil {
		t.Fatal("New must attach a tracer by default")
	}
	n, err := p.Broker.Partitions(TopicRaw)
	if err != nil || n != 4 {
		t.Fatalf("default partitions = %d (%v), want 4", n, err)
	}
}

func TestOptionsApply(t *testing.T) {
	clk := obs.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p, err := New(
		WithConfig(Config{Domain: mobility.Aviation, Partitions: 2, PredictSteps: 4, SampleInterval: 5 * time.Second}),
		WithClock(clk),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Broker.Partitions(TopicRaw); n != 2 {
		t.Fatalf("partitions = %d, want 2", n)
	}
	if p.cfg.Domain != mobility.Aviation || p.cfg.PredictSteps != 4 || p.cfg.SampleInterval != 5*time.Second {
		t.Fatalf("options not applied: %+v", p.cfg)
	}
	// The default registry must run on the injected clock.
	s := p.Obs().Snapshot()
	if !s.At.Equal(clk.Now()) {
		t.Fatalf("registry clock not injected: snapshot at %v, clock %v", s.At, clk.Now())
	}
}

func TestWithObsNilDisablesInstrumentation(t *testing.T) {
	for _, shards := range []int{1, 2} {
		p, err := New(WithObs(nil), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if p.Obs() != nil || p.Tracer() != nil {
			t.Fatal("WithObs(nil) must disable the registry and tracer")
		}
		if err := p.Ingest(context.Background(), smallFleet(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunRealTime(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if n := len(st.Metrics.Counters) + len(st.Metrics.Gauges) + len(st.Metrics.Histograms); n != 0 {
			t.Fatalf("shards=%d: disabled instrumentation still produced %d metrics: %+v", shards, n, st.Metrics)
		}
		if st.Summary.RawIn == 0 {
			t.Fatalf("shards=%d: component stats must still be captured without a registry", shards)
		}
	}
}

func TestSharedRegistryAcrossPipelines(t *testing.T) {
	reg := obs.NewRegistry(nil)
	a, err := New(WithObs(reg), WithConfig(Config{Partitions: 1}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithObs(reg), WithConfig(Config{Partitions: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Obs() != reg || b.Obs() != reg {
		t.Fatal("WithObs must attach the caller's registry")
	}
}

func TestWithConfigBridge(t *testing.T) {
	p, err := New(WithConfig(Config{Domain: mobility.Maritime}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Obs() == nil {
		t.Fatal("WithConfig must behave like the option path, including default instrumentation")
	}
}

// smallFleet produces a short deterministic report set for cheap run tests.
func smallFleet(t *testing.T) []mobility.Report {
	t.Helper()
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	c := region.Center()
	var reports []mobility.Report
	for i := 0; i < 240; i++ {
		// ~0.0012 deg/30s eastward keeps the track well under the synopses
		// noise-filter speed ceiling while still moving every sample.
		reports = append(reports, mobility.Report{
			ID:      "v1",
			Time:    base.Add(time.Duration(i) * 30 * time.Second),
			Pos:     geo.Point{Lon: c.Lon + float64(i)*0.0012, Lat: c.Lat},
			SpeedKn: 8,
			Heading: 90,
		})
	}
	return reports
}
