package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestEventLagClamp(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 10, 0, time.UTC)
	if got := EventLag(now, now.Add(-4*time.Second)); got != 4 {
		t.Errorf("EventLag past event = %v, want 4", got)
	}
	// An event from the "future" (skewed source clock, simulated time) is
	// fresh, not negatively late.
	if got := EventLag(now, now.Add(3*time.Second)); got != 0 {
		t.Errorf("EventLag future event = %v, want 0 (clamped)", got)
	}
}

func TestLagStageObserveAndWatermark(t *testing.T) {
	clk := NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	reg := NewRegistry(clk)
	lag := NewLagStage(reg, "decode")

	now := clk.Now()
	lag.Observe(now, now.Add(-2*time.Second))
	lag.Observe(now, now.Add(-5*time.Second))
	lag.Observe(now, now.Add(-1*time.Second))

	s := reg.Snapshot()
	h, ok := s.Histogram("lag.decode.seconds")
	if !ok || h.Count != 3 {
		t.Fatalf("lag.decode.seconds count = %+v, want 3 observations", h)
	}
	mark, ok := s.Gauge("lag.decode.max_seconds")
	if !ok || mark != 5 {
		t.Errorf("lag.decode.max_seconds = %v, want 5 (the watermark keeps the max)", mark)
	}
	// A fresher observation must not lower the watermark.
	lag.Observe(now, now.Add(-100*time.Millisecond))
	if mark, _ := reg.Snapshot().Gauge("lag.decode.max_seconds"); mark != 5 {
		t.Errorf("watermark dropped to %v after a fresh record, want 5", mark)
	}
}

func TestGaugeMax(t *testing.T) {
	reg := NewRegistry(nil)
	g := reg.Gauge("g")
	g.Set(5)
	g.Max(3)
	if v, _ := reg.Snapshot().Gauge("g"); v != 5 {
		t.Errorf("Max(3) lowered the gauge to %v", v)
	}
	g.Max(7)
	if v, _ := reg.Snapshot().Gauge("g"); v != 7 {
		t.Errorf("Max(7) = %v, want 7", v)
	}
}

func TestMergeWatermarkGaugesTakeMax(t *testing.T) {
	a := NewRegistry(nil)
	b := NewRegistry(nil)
	a.Gauge("lag.decode.max_seconds").Set(2)
	b.Gauge("lag.decode.max_seconds").Set(5)
	a.Gauge("plain").Set(2)
	b.Gauge("plain").Set(5)

	m := a.Snapshot().Merge(b.Snapshot())
	if v, _ := m.Gauge("lag.decode.max_seconds"); v != 5 {
		t.Errorf(".max_seconds merged to %v, want max 5", v)
	}
	// Merge the other way round: max is order-independent…
	m2 := b.Snapshot().Merge(a.Snapshot())
	if v, _ := m2.Gauge("lag.decode.max_seconds"); v != 5 {
		t.Errorf(".max_seconds merged (reversed) to %v, want max 5", v)
	}
	// …while plain gauges keep last-wins.
	if v, _ := m.Gauge("plain"); v != 5 {
		t.Errorf("plain gauge merged to %v, want last-wins 5", v)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	s := NewSampler(4)
	var first []bool
	for i := 0; i < 10; i++ {
		first = append(first, s.Admit())
	}
	if s.Seen() != 10 {
		t.Errorf("Seen = %d, want 10", s.Seen())
	}
	// Replay after Reset must reproduce the decision sequence bit for bit.
	s.Reset()
	for i, want := range first {
		if got := s.Admit(); got != want {
			t.Fatalf("replayed decision %d = %v, want %v", i, got, want)
		}
	}
	// The first admission is sampled, then every 4th.
	want := []bool{true, false, false, false, true, false, false, false, true, false}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("decision sequence = %v, want %v", first, want)
		}
	}
}

func TestSamplerDisabledAndNil(t *testing.T) {
	if s := NewSampler(0); s != nil {
		t.Error("NewSampler(0) must return nil (sampling off)")
	}
	var s *Sampler
	if s.Admit() || s.Seen() != 0 {
		t.Error("nil sampler must never admit")
	}
	s.Reset() // must not panic
}

func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry(nil)
	rs := NewRuntimeSampler(reg)
	// A test binary that has allocated little can read the live heap as 0
	// while its allocations sit in per-P caches. Keep a large allocation
	// live (large objects are counted when allocated) and run a GC, which
	// flushes the caches, before sampling.
	live := make([]byte, 1<<20)
	runtime.GC()
	rs.Sample()
	runtime.KeepAlive(live)
	s := reg.Snapshot()
	if v, ok := s.Gauge("runtime.goroutines"); !ok || v < 1 {
		t.Errorf("runtime.goroutines = %v, want >= 1", v)
	}
	if v, ok := s.Gauge("runtime.heap_alloc_bytes"); !ok || v <= 0 {
		t.Errorf("runtime.heap_alloc_bytes = %v, want > 0", v)
	}
	if v, ok := s.Gauge("runtime.heap_sys_bytes"); !ok || v <= 0 {
		t.Errorf("runtime.heap_sys_bytes = %v, want > 0", v)
	}
	if _, ok := s.Histogram("runtime.gc_pause.seconds"); !ok {
		t.Error("runtime.gc_pause.seconds histogram missing")
	}
	// Re-sampling must not double-count GC pauses: the pause histogram
	// tracks the cumulative runtime distribution by delta.
	h1, _ := s.Histogram("runtime.gc_pause.seconds")
	rs.Sample()
	h2, _ := reg.Snapshot().Histogram("runtime.gc_pause.seconds")
	if h2.Count < h1.Count {
		t.Errorf("gc pause count went backwards: %d -> %d", h1.Count, h2.Count)
	}
}

func TestRuntimeSamplerNilRegistry(t *testing.T) {
	rs := NewRuntimeSampler(nil)
	if rs != nil {
		t.Error("NewRuntimeSampler(nil) must return nil")
	}
	rs.Sample() // must not panic
}
