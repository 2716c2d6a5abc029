package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(NewManualClock(epoch))
	c := r.Counter("records")
	c.Inc()
	c.Add(9)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if c2 := r.Counter("records"); c2 != c {
		t.Fatal("same name must resolve to the same counter")
	}

	g := r.Gauge("depth")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	r.Reset() // must not panic
	if _, ok := r.Clock().(WallClock); !ok {
		t.Fatal("nil registry must hand out WallClock")
	}

	var tr *Tracer
	sp := tr.Start("stage")
	sp.End() // no-op
	if tr.Recent() != nil {
		t.Fatal("nil tracer must have no spans")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry(NewManualClock(epoch))
	h := r.Histogram("lat", 1, 2, 4)
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	s, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantCounts := []int64{1, 2, 1, 1} // <=1, <=2, <=4, overflow
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if got := s.Sum; math.Abs(got-106.5) > 1e-9 {
		t.Fatalf("sum = %v, want 106.5", got)
	}
	if m := s.Mean(); math.Abs(m-21.3) > 1e-9 {
		t.Fatalf("mean = %v, want 21.3", m)
	}
	// p50: rank 2.5 falls in the (1,2] bucket.
	if q := s.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	// p100 lands in the overflow bucket: reported as the largest bound.
	if q := s.Quantile(1); q != 4 {
		t.Fatalf("p100 = %v, want 4 (largest finite bound)", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty quantile = %v, want NaN", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	r := NewRegistry(NewManualClock(epoch))
	a := r.Histogram("a", 1, 2)
	b := r.Histogram("b", 1, 2)
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(5)
	snap := r.Snapshot()
	ha, _ := snap.Histogram("a")
	hb, _ := snap.Histogram("b")
	m, err := ha.Merge(hb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 3 || m.Counts[0] != 1 || m.Counts[1] != 1 || m.Counts[2] != 1 {
		t.Fatalf("merged = %+v", m)
	}
	c := r.Histogram("c", 1, 2, 3)
	c.Observe(1)
	hc, _ := r.Snapshot().Histogram("c")
	if _, err := ha.Merge(hc); err == nil {
		t.Fatal("merging mismatched bounds must fail")
	}
}

func TestSnapshotRatesAndReset(t *testing.T) {
	clk := NewManualClock(epoch)
	r := NewRegistry(clk)
	c := r.Counter("linkdisc.entities")
	c.Add(500)
	clk.Advance(10 * time.Second)
	s := r.Snapshot()
	if s.Elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v", s.Elapsed)
	}
	if rate := s.Rate("linkdisc.entities"); rate != 50 {
		t.Fatalf("rate = %v, want 50/s", rate)
	}

	h := r.Histogram("lat", 1)
	h.Observe(0.5)
	g := r.Gauge("ratio")
	g.Set(0.9)
	r.Reset()
	s = r.Snapshot()
	if s.Counter("linkdisc.entities") != 0 {
		t.Fatal("reset must zero counters")
	}
	if v, _ := s.Gauge("ratio"); v != 0 {
		t.Fatal("reset must zero gauges")
	}
	if hs, _ := s.Histogram("lat"); hs.Count != 0 {
		t.Fatal("reset must zero histograms")
	}
	if s.Elapsed != 0 {
		t.Fatalf("reset must restart the rate window, elapsed = %v", s.Elapsed)
	}
	// Handles resolved before the reset keep working.
	c.Inc()
	if r.Snapshot().Counter("linkdisc.entities") != 1 {
		t.Fatal("pre-reset handle must stay live")
	}
}

func TestSnapshotMerge(t *testing.T) {
	clkA, clkB := NewManualClock(epoch), NewManualClock(epoch)
	a, b := NewRegistry(clkA), NewRegistry(clkB)
	a.Counter("n").Add(3)
	b.Counter("n").Add(4)
	b.Counter("only.b").Add(1)
	a.Gauge("g").Set(1)
	b.Gauge("g").Set(2)
	a.Histogram("h", 1, 2).Observe(0.5)
	b.Histogram("h", 1, 2).Observe(1.5)
	clkB.Advance(5 * time.Second)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counter("n") != 7 || m.Counter("only.b") != 1 {
		t.Fatalf("merged counters wrong: %+v", m.Counters)
	}
	if v, _ := m.Gauge("g"); v != 2 {
		t.Fatalf("merged gauge = %v, want the later registry's 2", v)
	}
	if h, ok := m.Histogram("h"); !ok || h.Count != 2 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if m.Elapsed != 5*time.Second {
		t.Fatalf("merged elapsed = %v", m.Elapsed)
	}
}

func TestWriteText(t *testing.T) {
	clk := NewManualClock(epoch)
	r := NewRegistry(clk)
	r.Counter("synopses.in").Add(100)
	r.Gauge("flow.level").Set(0.87)
	r.Histogram("store.starjoin.seconds", 0.001, 0.01).Observe(0.002)
	clk.Advance(2 * time.Second)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"synopses.in", "rate=50.0/s", "flow.level", "0.8700", "store.starjoin.seconds", "count=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	clk := NewManualClock(epoch)
	tr := NewTracer(clk, 16)
	for i := 0; i < 20; i++ {
		sp := tr.Start("poll")
		clk.Advance(time.Millisecond)
		sp.End()
	}
	recent := tr.Recent()
	if len(recent) != 16 {
		t.Fatalf("ring retained %d spans, want 16", len(recent))
	}
	for i := range recent {
		if recent[i].Duration != time.Millisecond {
			t.Fatalf("span %d lasted %v on the tracer's clock, want 1ms", i, recent[i].Duration)
		}
		if i > 0 && recent[i].Start.Before(recent[i-1].Start) {
			t.Fatal("recent spans must be ordered oldest first")
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("n")
	g := r.Gauge("g")
	h := r.Histogram("h", 1, 10, 100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestRateZeroElapsed(t *testing.T) {
	// A ManualClock that is never advanced yields a zero-length window; the
	// derived rate must be 0 (not NaN or +Inf) because it flows into the
	// Prometheus exposition of obs/export, where non-finite values are
	// invalid output.
	clk := NewManualClock(epoch)
	r := NewRegistry(clk)
	r.Counter("core.records").Add(1234)
	r.Histogram("lag.ingest.standard.seconds") // registered, never observed
	s := r.Snapshot()
	if s.Elapsed != 0 {
		t.Fatalf("elapsed = %v, want 0", s.Elapsed)
	}
	if got := s.Rate("core.records"); got != 0 {
		t.Fatalf("rate over zero window = %v, want 0", got)
	}
	if got := s.Rate("missing"); got != 0 {
		t.Fatalf("rate of missing counter = %v, want 0", got)
	}
	// WriteText must render finite values only.
	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(b.String(), bad) {
			t.Fatalf("WriteText contains %s:\n%s", bad, b.String())
		}
	}
	if !strings.Contains(b.String(), "lag.ingest.standard.seconds") {
		t.Fatalf("WriteText left out the empty histogram:\n%s", b.String())
	}
}

func TestSpanIDs(t *testing.T) {
	clk := NewManualClock(epoch)
	tr := NewTracer(clk, 16)
	a := tr.Start("poll")
	b := tr.Start("process")
	if a.ID() == 0 || b.ID() == 0 || a.ID() == b.ID() {
		t.Fatalf("span IDs must be unique and non-zero, got %d and %d", a.ID(), b.ID())
	}
	b.End()
	a.End()
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("retained %d spans, want 2", len(recent))
	}
	for _, rec := range recent {
		if rec.ID != a.ID() && rec.ID != b.ID() {
			t.Fatalf("record ID %d matches no started span", rec.ID)
		}
	}
	// The zero Span from a nil tracer has ID 0 and ends as a no-op.
	var nilTr *Tracer
	sp := nilTr.Start("x")
	if sp.ID() != 0 {
		t.Fatalf("nil tracer span ID = %d, want 0", sp.ID())
	}
	sp.End()
}

// TestSnapshotMergeHistogramBuckets covers the satellite contract for
// Registry snapshot merging across shard workers: histograms under
// overlapping names with identical buckets sum element-wise, disjoint names
// both survive, mismatched bucket shapes keep the receiver's data — and the
// merged snapshot never aliases its inputs' bucket slices.
func TestSnapshotMergeHistogramBuckets(t *testing.T) {
	a, b := NewRegistry(NewManualClock(epoch)), NewRegistry(NewManualClock(epoch))

	// Overlapping name, identical bounds.
	a.Histogram("both", 1, 2).Observe(0.5)
	a.Histogram("both", 1, 2).Observe(1.5)
	b.Histogram("both", 1, 2).Observe(5)
	// Disjoint names, one per side.
	a.Histogram("only.a", 10).Observe(3)
	b.Histogram("only.b", 10, 20).Observe(15)
	// Overlapping name, mismatched bucket shapes.
	a.Histogram("mix", 1, 2).Observe(0.5)
	b.Histogram("mix", 1, 2, 3).Observe(2.5)

	sa, sb := a.Snapshot(), b.Snapshot()
	m := sa.Merge(sb)

	if h, ok := m.Histogram("both"); !ok || h.Count != 3 ||
		h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Sum != 7 {
		t.Fatalf("overlapping histogram merged wrong: %+v", h)
	}
	if h, ok := m.Histogram("only.a"); !ok || h.Count != 1 || h.Counts[0] != 1 {
		t.Fatalf("s-only histogram lost: %+v", h)
	}
	if h, ok := m.Histogram("only.b"); !ok || h.Count != 1 || h.Counts[1] != 1 {
		t.Fatalf("o-only histogram lost: %+v", h)
	}
	// Documented fallback: incompatible shapes keep the receiver's data.
	if h, ok := m.Histogram("mix"); !ok || h.Count != 1 || len(h.Bounds) != 2 {
		t.Fatalf("mismatched-bounds histogram should keep the receiver's data: %+v", h)
	}

	// No aliasing: scribbling on every merged bucket slice must leave both
	// input snapshots untouched.
	for i := range m.Histograms {
		for j := range m.Histograms[i].Counts {
			m.Histograms[i].Counts[j] += 1000
		}
	}
	if h, _ := sa.Histogram("both"); h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merge aliased the receiver's buckets: %+v", h)
	}
	if h, _ := sb.Histogram("only.b"); h.Counts[1] != 1 {
		t.Errorf("merge aliased the argument's buckets: %+v", h)
	}

	// Prefixed views (the per-shard labels) must deep-copy too.
	pre := sb.Prefixed("shard.1.")
	if h, ok := pre.Histogram("shard.1.only.b"); !ok || h.Count != 1 {
		t.Fatalf("prefixed histogram missing: %+v", pre.Histograms)
	}
	for i := range pre.Histograms {
		for j := range pre.Histograms[i].Counts {
			pre.Histograms[i].Counts[j] += 1000
		}
	}
	if h, _ := sb.Histogram("only.b"); h.Counts[1] != 1 {
		t.Errorf("Prefixed aliased the source's buckets: %+v", h)
	}
}
