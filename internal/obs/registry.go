package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry holds named metrics. Resolving a metric by name takes the
// registry mutex and is meant to be done once, at instrumentation time; the
// returned handles update lock-free. A nil *Registry is a valid "metrics
// off" registry: every getter returns a nil (no-op) handle.
type Registry struct {
	clock Clock

	mu       sync.Mutex
	start    time.Time
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry reading time from clock (WallClock
// when nil). The creation instant anchors Snapshot's Elapsed, and with it
// every derived rate.
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = WallClock{}
	}
	return &Registry{
		clock:    clock,
		start:    clock.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Clock returns the registry's time source. It is nil-safe: a nil registry
// hands out WallClock so callers can time operations unconditionally.
func (r *Registry) Clock() Clock {
	if r == nil || r.clock == nil {
		return WallClock{}
	}
	return r.clock
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (LatencyBuckets when none are given). Later calls
// return the existing histogram regardless of bounds. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = LatencyBuckets()
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric and restarts the rate window.
// Existing handles stay valid. Crash recovery calls this after restoring a
// checkpoint: metric state is monitoring-only and deliberately outside the
// checkpoint, so post-restore readings cover exactly the replayed span
// instead of double-counting it.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.start = r.clock.Now()
}

// Snapshot is a race-free, value-type copy of a registry at one instant,
// with metrics sorted by name. Elapsed is the time since the registry was
// created or last Reset, which anchors Rate.
type Snapshot struct {
	At         time.Time
	Elapsed    time.Duration
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Snapshot captures every metric. Safe to call concurrently with updates.
// A nil registry yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	s := Snapshot{At: now, Elapsed: now.Sub(r.start)}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value and whether it exists.
func (s Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram snapshot and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Rate returns the named counter's per-second rate over the snapshot's
// elapsed window. An empty or zero window — a ManualClock that was never
// advanced — derives 0, never NaN or ±Inf: rate values flow into the
// Prometheus and JSON encoders of obs/export, where non-finite numbers are
// invalid output.
func (s Snapshot) Rate(name string) float64 {
	secs := s.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	r := float64(s.Counter(name)) / secs
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}

// Merge combines two snapshots — e.g. from partitioned workers: counters
// and histograms are summed; for gauges, o's reading wins where both exist
// (instantaneous values cannot be meaningfully added), except watermark
// gauges — names ending in ".max_seconds" — which merge by maximum, so a
// freshness watermark over merged shards is the worst lag across all of
// them rather than whichever shard was merged last. Histograms with
// mismatched bucket bounds keep the receiver's data. At/Elapsed take the
// larger of the two windows.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{At: s.At, Elapsed: s.Elapsed}
	if o.At.After(out.At) {
		out.At = o.At
	}
	if o.Elapsed > out.Elapsed {
		out.Elapsed = o.Elapsed
	}

	cs := make(map[string]int64, len(s.Counters)+len(o.Counters))
	for _, c := range s.Counters {
		cs[c.Name] += c.Value
	}
	for _, c := range o.Counters {
		cs[c.Name] += c.Value
	}
	names := make([]string, 0, len(cs))
	for name := range cs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Counters = append(out.Counters, CounterSnapshot{Name: name, Value: cs[name]})
	}

	gs := make(map[string]float64, len(s.Gauges)+len(o.Gauges))
	for _, g := range s.Gauges {
		gs[g.Name] = g.Value
	}
	for _, g := range o.Gauges {
		if prev, ok := gs[g.Name]; ok && isWatermarkGauge(g.Name) {
			gs[g.Name] = math.Max(prev, g.Value)
			continue
		}
		gs[g.Name] = g.Value
	}
	names = names[:0]
	for name := range gs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Gauges = append(out.Gauges, GaugeSnapshot{Name: name, Value: gs[name]})
	}

	hs := make(map[string]HistogramSnapshot, len(s.Histograms)+len(o.Histograms))
	for _, h := range s.Histograms {
		hs[h.Name] = h.clone()
	}
	for _, h := range o.Histograms {
		if prev, ok := hs[h.Name]; ok {
			if merged, err := prev.Merge(h); err == nil {
				hs[h.Name] = merged
			}
		} else {
			hs[h.Name] = h.clone()
		}
	}
	names = names[:0]
	for name := range hs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Histograms = append(out.Histograms, hs[name])
	}
	return out
}

// isWatermarkGauge reports whether a gauge is a monotone high-water mark
// (a freshness watermark), which merges by maximum rather than last-wins.
func isWatermarkGauge(name string) bool { return strings.HasSuffix(name, ".max_seconds") }

// Prefixed returns a copy of the snapshot with every metric name prefixed,
// e.g. "synopses.critical" → "shard.2.synopses.critical". The shard plane
// uses it to publish each worker's registry under a per-shard label next to
// the unlabelled aggregate, so both views coexist in one merged snapshot.
func (s Snapshot) Prefixed(prefix string) Snapshot {
	out := Snapshot{At: s.At, Elapsed: s.Elapsed}
	for _, c := range s.Counters {
		out.Counters = append(out.Counters, CounterSnapshot{Name: prefix + c.Name, Value: c.Value})
	}
	for _, g := range s.Gauges {
		out.Gauges = append(out.Gauges, GaugeSnapshot{Name: prefix + g.Name, Value: g.Value})
	}
	for _, h := range s.Histograms {
		hc := h.clone()
		hc.Name = prefix + h.Name
		out.Histograms = append(out.Histograms, hc)
	}
	return out
}

// WriteText renders the snapshot as a plain-text metrics dump: one line per
// metric, sorted by name within each kind. Counters include the per-second
// rate over the snapshot window, histograms their count/mean/p50/p99 (the
// count alone while empty) — the live counterparts of the paper's §4.2
// throughput figures.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# metrics snapshot (window %s)\n", s.Elapsed.Round(time.Millisecond)); err != nil {
		return err
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %-42s %12d  rate=%.1f/s\n", c.Name, c.Value, s.Rate(c.Name)); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge   %-42s %12.4f\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		var err error
		if h.Count == 0 {
			// No observations: there is no mean or quantile to print.
			_, err = fmt.Fprintf(w, "hist    %-42s count=0\n", h.Name)
		} else {
			_, err = fmt.Fprintf(w, "hist    %-42s count=%d mean=%.3g p50=%.3g p99=%.3g\n",
				h.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
