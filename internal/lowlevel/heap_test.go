package lowlevel

import (
	"bytes"
	"container/heap"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/wire"
)

// twinStats is the container/heap median the typed heaps must reproduce:
// same lo/hi arrays, same median, after every observation. Test oracle only.
type twinStats struct {
	lo twinMaxHeap
	hi twinMinHeap
}

func (s *twinStats) observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.lo.Len() == 0 || v <= s.lo[0] {
		heap.Push(&s.lo, v)
	} else {
		heap.Push(&s.hi, v)
	}
	if s.lo.Len() > s.hi.Len()+1 {
		heap.Push(&s.hi, heap.Pop(&s.lo))
	} else if s.hi.Len() > s.lo.Len() {
		heap.Push(&s.lo, heap.Pop(&s.hi))
	}
}

func (s *twinStats) median() float64 {
	switch {
	case s.lo.Len() == 0:
		return math.NaN()
	case s.lo.Len() > s.hi.Len():
		return s.lo[0]
	default:
		return (s.lo[0] + s.hi[0]) / 2
	}
}

type twinMaxHeap []float64

func (h twinMaxHeap) Len() int            { return len(h) }
func (h twinMaxHeap) Less(i, j int) bool  { return h[i] > h[j] }
func (h twinMaxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *twinMaxHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *twinMaxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

type twinMinHeap []float64

func (h twinMinHeap) Len() int            { return len(h) }
func (h twinMinHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h twinMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *twinMinHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *twinMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRunningStatsMatchesContainerHeapTwin(t *testing.T) {
	const n = 700
	rnd := rand.New(rand.NewSource(7))
	sequences := map[string]func(i int) float64{
		"random":      func(int) float64 { return rnd.NormFloat64() * 50 },
		"few-values":  func(int) float64 { return float64(rnd.Intn(4)) },
		"ascending":   func(i int) float64 { return float64(i) },
		"descending":  func(i int) float64 { return float64(-i) },
		"constant":    func(int) float64 { return 12.5 },
		"alternating": func(i int) float64 { return float64(i%2) * 100 },
		"zig-zag-out": func(i int) float64 { return float64(i) * float64(1-2*(i%2)) },
		"with-nan-inf": func(i int) float64 {
			switch i % 11 {
			case 3:
				return math.NaN()
			case 7:
				return math.Inf(1 - 2*(i%2))
			}
			return rnd.Float64()
		},
	}
	for name, next := range sequences {
		got, want := NewRunningStats(), &twinStats{}
		for i := 0; i < n; i++ {
			v := next(i)
			got.Observe(v)
			want.observe(v)
			if !sameFloats(got.lo, want.lo) || !sameFloats(got.hi, want.hi) {
				t.Fatalf("%s: heap arrays diverge after observation %d (%v):\n lo %v\nwant %v\n hi %v\nwant %v",
					name, i, v, got.lo, want.lo, got.hi, want.hi)
			}
			if g, w := got.Median(), want.median(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: median %v after observation %d, twin %v", name, g, i, w)
			}
		}
	}
}

// TestRunningStatsObserveAmortisedZeroAllocs: the only allocations are the
// heaps' slice growth, which amortises to nothing.
func TestRunningStatsObserveAmortisedZeroAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	s := NewRunningStats()
	allocs := testing.AllocsPerRun(20000, func() { s.Observe(rnd.NormFloat64()) })
	if allocs >= 0.01 {
		t.Errorf("Observe = %.4f allocs per call, want amortised 0", allocs)
	}
}

func profiledFleet(t testing.TB) *Profiler {
	t.Helper()
	pf := NewProfiler()
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 90; i++ {
		id := []string{"a", "b", "c"}[i%3]
		pf.Observe(mobility.Report{
			ID: id, Time: time.Date(2016, 4, 1, 0, 0, i, 0, time.UTC),
			Pos: geo.Pt(23.5, 38), SpeedKn: 5 + rnd.Float64()*10,
		})
	}
	return pf
}

// TestProfilerRestoreRejectsCorruptBlobs asserts "error ⇒ profiler
// unchanged": every blob names a valid mover before or after the corrupt
// one, so a half-applied restore would show.
func TestProfilerRestoreRejectsCorruptBlobs(t *testing.T) {
	good := statsWire{n: 3, sum: 6, min: 1, max: 3, lo: []float64{2, 1}, hi: []float64{3}}
	cases := map[string]struct {
		stats   statsWire
		wantErr string
	}{
		"count above heap sizes": {statsWire{n: 4, sum: 6, min: 1, max: 3, lo: []float64{2, 1}, hi: []float64{3}}, "count differs"},
		"count with empty heaps": {statsWire{n: 2, sum: 6, min: 1, max: 3}, "count differs"},
		"hi larger than lo":      {statsWire{n: 3, sum: 6, min: 1, max: 3, lo: []float64{1}, hi: []float64{2, 3}}, "unbalanced"},
		"lo two larger than hi":  {statsWire{n: 3, sum: 6, min: 1, max: 3, lo: []float64{3, 2, 1}}, "unbalanced"},
		"lo not a max-heap":      {statsWire{n: 3, sum: 6, min: 1, max: 3, lo: []float64{1, 2}, hi: []float64{3}}, "out of order"},
		"hi not a min-heap":      {statsWire{n: 5, sum: 15, min: 1, max: 5, lo: []float64{3, 1, 2}, hi: []float64{5, 4}}, "out of order"},
		"lo above hi":            {statsWire{n: 2, sum: 3, min: 1, max: 2, lo: []float64{2}, hi: []float64{1}}, "overlap"},
		"NaN sum":                {statsWire{n: 1, sum: math.NaN(), min: 1, max: 1, lo: []float64{1}}, "NaN sum"},
	}
	for name, c := range cases {
		for _, blob := range [][]byte{
			encodeProfiles(profileWire{id: "x", speed: good}, profileWire{id: "y", speed: c.stats}),
			encodeProfiles(profileWire{id: "x", speed: c.stats}, profileWire{id: "y", speed: good}),
			encodeProfiles(profileWire{id: "y", speed: good, accel: c.stats}),
		} {
			requireRejected(t, name, profiledFleet(t), blob, c.wantErr)
		}
	}
	valid := encodeProfiles(profileWire{id: "x", speed: good}, profileWire{id: "y", speed: good})
	framing := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"JSON from before the binary codec": {[]byte(`{"x":{"id":"x"}}`), "not a binary snapshot"},
		"another operator's tag":            {append([]byte{wire.TagArea}, valid[1:]...), "not a binary snapshot"},
		"unknown version":                   {append([]byte{wire.TagProfiler, 9}, valid[2:]...), "unsupported snapshot version"},
		"truncated":                         {valid[:len(valid)-1], "malformed"},
		"trailing bytes":                    {append(append([]byte(nil), valid...), 0), "malformed"},
		"movers out of order":               {encodeProfiles(profileWire{id: "y", speed: good}, profileWire{id: "x", speed: good}), "ascending order"},
		"duplicate mover":                   {encodeProfiles(profileWire{id: "x", speed: good}, profileWire{id: "x", speed: good}), "ascending order"},
		"hostile mover count":               {wire.AppendUvarint(wire.AppendHeader(nil, wire.TagProfiler), math.MaxUint64), "malformed"},
	}
	for name, c := range framing {
		requireRejected(t, name, profiledFleet(t), c.blob, c.wantErr)
	}
}

// requireRejected restores blob into op, which must fail with an error
// containing wantErr and leave op's snapshot as it was.
func requireRejected(t *testing.T, name string, op interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}, blob []byte, wantErr string) {
	t.Helper()
	before, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	err = op.Restore(blob)
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("%s: err = %v, want one containing %q", name, err, wantErr)
		return
	}
	after, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("%s: a rejected restore changed the operator", name)
	}
}

// TestProfilerRestoreRoundTrip: valid snapshots, including an accumulator
// that has seen nothing, pass the new validation and keep producing the same
// medians and heap layout.
func TestProfilerRestoreRoundTrip(t *testing.T) {
	a := profiledFleet(t)
	a.Observe(mobility.Report{ID: "single", Time: time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC), Pos: geo.Pt(23.5, 38), SpeedKn: 4})
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := NewProfiler()
	if err := b.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r := mobility.Report{ID: "b", Time: time.Date(2016, 4, 1, 0, 5, i, 0, time.UTC), Pos: geo.Pt(23.5, 38), SpeedKn: float64(i % 7)}
		a.Observe(r)
		b.Observe(r)
	}
	sa, _ := a.Snapshot()
	sb, _ := b.Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Errorf("restored profiler diverged:\n%x\n%x", sa, sb)
	}
}
