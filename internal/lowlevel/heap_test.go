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

func profiledFleet(t *testing.T) *Profiler {
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
	const good = `{"n":3,"sum":6,"min":1,"max":3,"lo":[2,1],"hi":[3]}`
	const empty = `{"n":0,"sum":0}`
	profile := func(id, speed string) string {
		return `"` + id + `":{"id":"` + id + `","speed":` + speed + `,"accel":` + empty + `,"last":{}}`
	}
	cases := map[string]struct {
		stats, wantErr string
	}{
		"count above heap sizes": {`{"n":4,"sum":6,"min":1,"max":3,"lo":[2,1],"hi":[3]}`, "count differs"},
		"count with empty heaps": {`{"n":2,"sum":6,"min":1,"max":3}`, "count differs"},
		"hi larger than lo":      {`{"n":3,"sum":6,"min":1,"max":3,"lo":[1],"hi":[2,3]}`, "unbalanced"},
		"lo two larger than hi":  {`{"n":3,"sum":6,"min":1,"max":3,"lo":[3,2,1]}`, "unbalanced"},
		"lo not a max-heap":      {`{"n":3,"sum":6,"min":1,"max":3,"lo":[1,2],"hi":[3]}`, "out of order"},
		"hi not a min-heap":      {`{"n":5,"sum":15,"min":1,"max":5,"lo":[3,1,2],"hi":[5,4]}`, "out of order"},
		"lo above hi":            {`{"n":2,"sum":3,"min":1,"max":2,"lo":[2],"hi":[1]}`, "overlap"},
	}
	for name, c := range cases {
		for _, blob := range []string{
			"{" + profile("x", good) + "," + profile("y", c.stats) + "}",
			"{" + profile("x", c.stats) + "," + profile("y", good) + "}",
			"{" + profile("y", c.stats) + "}",
		} {
			pf := profiledFleet(t)
			before, err := pf.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			err = pf.Restore([]byte(blob))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
				continue
			}
			after, err := pf.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("%s: a rejected restore changed the profiler:\n%s\n%s", name, before, after)
			}
		}
	}
	pf := profiledFleet(t)
	if err := pf.Restore([]byte(`{"x":`)); err == nil {
		t.Error("truncated JSON restored")
	}
	if len(pf.MoverIDs()) != 3 {
		t.Error("a rejected restore changed the profiler")
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
		t.Errorf("restored profiler diverged:\n%s\n%s", sa, sb)
	}
}
