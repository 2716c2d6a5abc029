package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and safe on a nil receiver (no-op), so handles
// resolved from a nil Registry cost one predictable branch per update.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored; counters only go
// up — use a Gauge for values that move both ways).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous float metric (queue depth, ratio, watermark).
// Safe for concurrent use and nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max raises the gauge to v if v exceeds the current reading — a
// monotone high-water mark within one reset window. Freshness watermarks
// ("lag.<stage>.max_seconds") use it: concurrent observers race only
// upward, so the gauge converges on the true maximum.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram is a fixed-bucket distribution metric. Bucket bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the overflow.
// Observations update atomics only, so concurrent Observe calls never
// block each other. Snapshots taken concurrently with observations are
// internally consistent per field but may be mid-update across fields —
// acceptable for monitoring, which is the only consumer.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// observeN records the same value n times in one bucket update — the bulk
// path for re-binning external histograms (runtime GC pauses), where per-
// observation loops would scale with the process's GC history.
func (h *Histogram) observeN(v float64, n int64) {
	if h == nil || n <= 0 || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// LatencyBuckets returns the default duration buckets (seconds), spanning
// 10µs to ~80s in powers of two — wide enough for both per-record costs
// and whole-stage timings.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 24)
	for v := 10e-6; v < 100; v *= 2 {
		out = append(out, v)
	}
	return out
}

// CounterSnapshot is one counter reading.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// GaugeSnapshot is one gauge reading.
type GaugeSnapshot struct {
	Name  string
	Value float64
}

// HistogramSnapshot is a value-type copy of a histogram: mergeable across
// workers or runs, and queryable for mean and quantile estimates.
type HistogramSnapshot struct {
	Name   string
	Bounds []float64 // ascending upper bounds
	Counts []int64   // len(Bounds)+1; last is the +Inf overflow bucket
	Count  int64
	Sum    float64
}

// clone returns a deep copy that shares no slices with the receiver, so
// merged snapshots never alias their inputs.
func (h HistogramSnapshot) clone() HistogramSnapshot {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Counts = append([]int64(nil), h.Counts...)
	return h
}

// Merge returns the element-wise sum of two snapshots of the same shape.
func (h HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if len(h.Bounds) != len(o.Bounds) {
		return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different bucket counts (%d vs %d)", len(h.Bounds), len(o.Bounds))
	}
	for i := range h.Bounds {
		if h.Bounds[i] != o.Bounds[i] {
			return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different bounds at %d (%g vs %g)", i, h.Bounds[i], o.Bounds[i])
		}
	}
	out := HistogramSnapshot{
		Name:   h.Name,
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: make([]int64, len(h.Counts)),
		Count:  h.Count + o.Count,
		Sum:    h.Sum + o.Sum,
	}
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i] + o.Counts[i]
	}
	return out, nil
}

// Mean returns the average observation, or NaN when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) assuming a uniform
// distribution within each bucket. Returns NaN when empty. Values in the
// overflow bucket report the largest finite bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= rank && c > 0 {
			if i >= len(h.Bounds) {
				// Overflow bucket: the best available estimate is the
				// largest finite bound.
				if len(h.Bounds) == 0 {
					return math.NaN()
				}
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			frac := (rank - (cum - float64(c))) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	if len(h.Bounds) == 0 {
		return math.NaN()
	}
	return h.Bounds[len(h.Bounds)-1]
}
