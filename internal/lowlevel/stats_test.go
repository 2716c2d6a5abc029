package lowlevel

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/wire"
)

// oracleStats is what RunningStats must equal: the values kept, sorted on
// every read. Test-only.
type oracleStats struct{ vals []float64 }

func (o *oracleStats) observe(v float64) {
	if !math.IsNaN(v) {
		o.vals = append(o.vals, v)
	}
}

// read returns min, max, mean and median, each NaN when empty. The mean sums
// in observation order, as RunningStats does.
func (o *oracleStats) read() [4]float64 {
	n := len(o.vals)
	if n == 0 {
		return [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	}
	var sum float64
	for _, v := range o.vals {
		sum += v
	}
	sorted := append([]float64(nil), o.vals...)
	sort.Float64s(sorted)
	median := sorted[n/2]
	if n%2 == 0 {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return [4]float64{sorted[0], sorted[n-1], sum / float64(n), median}
}

func readStatsOf(s *RunningStats) [4]float64 {
	return [4]float64{s.Min(), s.Max(), s.Mean(), s.Median()}
}

// sameReading compares readings with ==, so −0 equals +0 (which zero a
// median of mixed zeros carries depends on the selection order), and NaN
// equals NaN.
func sameReading(a, b [4]float64) bool {
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestRunningStatsMatchesSortOracle drives random sequences — duplicates,
// mixed ±0, ±Inf and skipped NaN among them — through RunningStats and a
// sort, checking Min, Max, Mean and Median after every value, with the
// accumulator carried through its profile record's Snapshot/Restore at
// random points.
func TestRunningStatsMatchesSortOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	sequences := map[string]func(i int) float64{
		"random":      func(int) float64 { return rnd.NormFloat64() * 50 },
		"few-values":  func(int) float64 { return float64(rnd.Intn(4)) },
		"ascending":   func(i int) float64 { return float64(i) },
		"descending":  func(i int) float64 { return float64(-i) },
		"constant":    func(int) float64 { return 12.5 },
		"alternating": func(i int) float64 { return float64(i%2) * 100 },
		"zig-zag-out": func(i int) float64 { return float64(i) * float64(1-2*(i%2)) },
		"signed-zeros": func(int) float64 {
			return [...]float64{0, negZero, 1, -1}[rnd.Intn(4)]
		},
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
		for trial := 0; trial < 4; trial++ {
			p, want := NewTrajectoryProfile("m"), &oracleStats{}
			for i, n := 0, 1+rnd.Intn(400); i < n; i++ {
				v := next(i)
				p.Speed.Observe(v)
				want.observe(v)
				if rnd.Intn(50) == 0 {
					p = roundTripProfile(t, p)
				}
				if got, w := readStatsOf(&p.Speed), want.read(); !sameReading(got, w) {
					t.Fatalf("%s trial %d: after value %d (%v) min/max/mean/median %v, sort says %v", name, trial, i, v, got, w)
				}
			}
			if p.Speed.N() != int64(len(want.vals)) {
				t.Fatalf("%s: N %d, want %d", name, p.Speed.N(), len(want.vals))
			}
		}
	}
}

// roundTripProfile passes p through its profile record.
func roundTripProfile(t *testing.T, p *TrajectoryProfile) *TrajectoryProfile {
	t.Helper()
	buf := p.AppendProfile(make([]byte, 0, p.ProfileLen()))
	if len(buf) != cap(buf) {
		t.Fatalf("profile record of %d bytes, ProfileLen says %d", len(buf), cap(buf))
	}
	r := wire.NewReader(buf)
	got, err := ReadProfile(r, p.MoverID)
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	return &got
}

// TestMedianLeavesCheckpointUnchanged: reading the median must not reorder
// the kept values, so a profiler whose medians were read snapshots to the
// same bytes as one whose were not.
func TestMedianLeavesCheckpointUnchanged(t *testing.T) {
	read, unread := NewProfiler(), NewProfiler()
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		r := mobility.Report{
			ID: []string{"a", "b"}[i%2], Time: time.Date(2016, 4, 1, 0, 0, i, 0, time.UTC),
			Pos: geo.Pt(23.5, 38), SpeedKn: float64(rnd.Intn(20)),
		}
		read.Observe(r)
		unread.Observe(r)
		p := read.Profile(r.ID)
		p.Speed.Median()
		p.Accel.Median()
	}
	a, _ := read.Snapshot()
	b, _ := unread.Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("reading medians changed the profiler's snapshot")
	}
}

// TestRunningStatsObserveAmortisedZeroAllocs: the only allocations are the
// values' slice growth, which amortises to nothing.
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
	good := []float64{2, 1, 3}
	withNaN := []float64{2, math.NaN(), 3}
	for _, blob := range [][]byte{
		encodeProfiles(profileWire{id: "x", speed: good}, profileWire{id: "y", speed: withNaN}),
		encodeProfiles(profileWire{id: "x", speed: withNaN}, profileWire{id: "y", speed: good}),
		encodeProfiles(profileWire{id: "y", speed: good, accel: withNaN}),
	} {
		requireRejected(t, "NaN value", profiledFleet(t), blob, "NaN value")
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
		"hostile value count":               {wire.AppendUvarint(wire.AppendString(wire.AppendUvarint(wire.AppendHeader(nil, wire.TagProfiler), 1), "x"), 1<<60), "malformed"},
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
// that has seen nothing, pass the validation and keep producing the same
// statistics and snapshots.
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
