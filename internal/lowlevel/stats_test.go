package lowlevel

import (
	"bytes"
	"hash/fnv"
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

// oracleStats keeps every value and sorts on read: what Min, Max, Mean and
// N must equal exactly, and what the median estimate is measured against.
// Test-only.
type oracleStats struct{ vals []float64 }

func (o *oracleStats) observe(v float64) {
	if !math.IsNaN(v) {
		o.vals = append(o.vals, v)
	}
}

// read returns min, max, mean and the exact median, each NaN when empty.
// The mean sums in observation order, as RunningStats does.
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

// rankError is how far m sits from the middle of the values: the share of
// values below m, counting those equal to m half, minus one half.
func (o *oracleStats) rankError(m float64) float64 {
	var below, equal int
	for _, v := range o.vals {
		switch {
		case v < m:
			below++
		case v == m:
			equal++
		}
	}
	return math.Abs((float64(below)+float64(equal)/2)/float64(len(o.vals)) - 0.5)
}

func readStatsOf(s *RunningStats) [4]float64 {
	return [4]float64{s.Min(), s.Max(), s.Mean(), s.Median()}
}

// same compares with ==, so −0 equals +0 (which zero a median of mixed
// zeros carries depends on the order the values came in), and NaN equals
// NaN.
func same(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// The P² median's rank error on continuous streams: within earlyRankError
// from 50 values on for independent draws, and within lateRankError from
// 200 values on for every continuous stream. Over 300 streams of 1 000
// values each, the worst reading from 50 values on was 0.11 (normal), 0.13
// (exponential) and 0.15 (stopped/cruising mixture), and from 200 values on
// 0.044, 0.058 and 0.063; the mean-reverting walk read 0.19 and 0.076: its
// first hundred values are a sample of a few gusts, which the markers
// trail.
const (
	earlyRankError = 0.12
	lateRankError  = 0.08
)

// TestRunningStatsMatchesSortOracle drives sequences — duplicates, mixed
// ±0, ±Inf and skipped NaN among them — through RunningStats and a sort,
// after every value: Min, Max, Mean and N equal the sort's exactly; the
// median is exact below five values, exact on a constant stream, and
// always within [Min, Max]; on the continuous sequences its rank error
// stays within the bounds above. The accumulator is carried through its
// profile record at random points, and must read bit for bit like a twin
// that never was.
func TestRunningStatsMatchesSortOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	speed := 12.0
	// The rank error of a continuous sequence — no ties, so it is the
	// estimate's — is held to lateRankError, and to earlyRankError too when
	// the values are independent draws. Over a handful of distinct values
	// P² interpolates between them, where an estimate's rank jumps by a
	// whole value's share (up to 0.34 on few-values and signed-zeros): there
	// only [Min, Max] holds.
	const (
		ties = iota
		continuous
		independent
	)
	sequences := map[string]struct {
		next func(rnd *rand.Rand, i int) float64
		kind int
	}{
		"random":      {func(rnd *rand.Rand, _ int) float64 { return rnd.NormFloat64() * 50 }, independent},
		"exponential": {func(rnd *rand.Rand, _ int) float64 { return rnd.ExpFloat64() * 10 }, independent},
		"speed-like": {func(rnd *rand.Rand, _ int) float64 {
			// A fleet's speeds over ground: one report in seven from a
			// vessel at rest, the others cruising around 12 kn.
			if rnd.Intn(7) == 0 {
				return math.Abs(rnd.NormFloat64() * 0.5)
			}
			return math.Max(12+rnd.NormFloat64()*3, 0)
		}, independent},
		"speed-walk": {func(rnd *rand.Rand, _ int) float64 {
			// One vessel's speed: mean-reverting around 12 kn.
			speed += 0.1*(12-speed) + rnd.NormFloat64()*0.8
			return math.Max(speed, 0)
		}, continuous},
		"few-values":  {func(rnd *rand.Rand, _ int) float64 { return float64(rnd.Intn(4)) }, ties},
		"ascending":   {func(_ *rand.Rand, i int) float64 { return float64(i) }, ties},
		"descending":  {func(_ *rand.Rand, i int) float64 { return float64(-i) }, ties},
		"constant":    {func(*rand.Rand, int) float64 { return 12.5 }, ties},
		"alternating": {func(_ *rand.Rand, i int) float64 { return float64(i%2) * 100 }, ties},
		"zig-zag-out": {func(_ *rand.Rand, i int) float64 { return float64(i) * float64(1-2*(i%2)) }, ties},
		"signed-zeros": {func(rnd *rand.Rand, _ int) float64 {
			return [...]float64{0, negZero, 1, -1}[rnd.Intn(4)]
		}, ties},
		"with-nan-inf": {func(rnd *rand.Rand, i int) float64 {
			switch i % 11 {
			case 3:
				return math.NaN()
			case 7:
				return math.Inf(1 - 2*(i%2))
			}
			return rnd.Float64()
		}, ties},
	}
	for name, seq := range sequences {
		// Each sequence draws from its own source, seeded from its name, so
		// its values depend neither on map order nor on the other sequences.
		h := fnv.New64a()
		h.Write([]byte(name)) // a hash.Hash's Write never fails
		rnd := rand.New(rand.NewSource(int64(h.Sum64())))
		var early, late float64
		for trial := 0; trial < 4; trial++ {
			p, twin, want := NewTrajectoryProfile("m"), NewRunningStats(), &oracleStats{}
			for i, n := 0, 1+rnd.Intn(2000); i < n; i++ {
				v := seq.next(rnd, i)
				p.Speed.Observe(v)
				twin.Observe(v)
				want.observe(v)
				if rnd.Intn(50) == 0 {
					p = roundTripProfile(t, p)
				}
				got, w := readStatsOf(&p.Speed), want.read()
				for k, r := range readStatsOf(twin) {
					if math.Float64bits(r) != math.Float64bits(got[k]) {
						t.Fatalf("%s trial %d: after value %d, reading %d is %v through round trips and %v without", name, trial, i, k, got[k], r)
					}
				}
				if !same(got[0], w[0]) || !same(got[1], w[1]) || !same(got[2], w[2]) || p.Speed.N() != int64(len(want.vals)) {
					t.Fatalf("%s trial %d: after value %d (%v) min/max/mean %v n %d, sort says %v n %d", name, trial, i, v, got[:3], p.Speed.N(), w[:3], len(want.vals))
				}
				med, count := got[3], len(want.vals)
				switch {
				case count < 5 || name == "constant":
					if !same(med, w[3]) {
						t.Fatalf("%s trial %d: median of %d values %v, want exactly %v", name, trial, count, med, w[3])
					}
				case !(got[0] <= med && med <= got[1]):
					t.Fatalf("%s trial %d: median %v outside [%v, %v]", name, trial, med, got[0], got[1])
				case seq.kind == independent && count >= 50:
					early = math.Max(early, want.rankError(med))
				}
				if seq.kind != ties && count >= 200 {
					late = math.Max(late, want.rankError(med))
				}
			}
		}
		if early > earlyRankError || late > lateRankError {
			t.Errorf("%s: median rank error up to %.3f from 50 values, %.3f from 200, want ≤ %v and %v",
				name, early, late, earlyRankError, lateRankError)
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

// TestMedianLeavesCheckpointUnchanged: reading the median must not change
// the accumulator, so a profiler whose medians were read snapshots to the
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

// TestRunningStatsObserveAmortisedZeroAllocs: Observe updates a fixed state
// and never allocates.
func TestRunningStatsObserveAmortisedZeroAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	s := NewRunningStats()
	allocs := testing.AllocsPerRun(20000, func() { s.Observe(rnd.NormFloat64()) })
	if allocs != 0 {
		t.Errorf("Observe = %.4f allocs per call, want 0", allocs)
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
// unchanged" for every accumulator state Observe cannot reach: every blob
// names a valid mover before or after the corrupt one, so a half-applied
// restore would show.
func TestProfilerRestoreRejectsCorruptBlobs(t *testing.T) {
	good := statsWire{n: 7, min: 1, max: 9, sum: 30, q: []float64{1, 3, 4, 6, 9}, pos: []uint64{2, 4, 5}}
	few := statsWire{n: 3, min: 1, max: 3, sum: 6, q: []float64{1, 2, 3}}
	with := func(f func(s *statsWire)) statsWire {
		s := good
		s.q, s.pos = append([]float64(nil), good.q...), append([]uint64(nil), good.pos...)
		f(&s)
		return s
	}
	states := map[string]struct {
		bad     statsWire
		wantErr string
	}{
		"NaN marker":            {with(func(s *statsWire) { s.q[2] = math.NaN() }), "NaN value"},
		"NaN minimum":           {with(func(s *statsWire) { s.min = math.NaN() }), "NaN value"},
		"NaN among few values":  {statsWire{n: 2, min: 1, max: 2, sum: 3, q: []float64{1, math.NaN()}}, "NaN value"},
		"minimum above maximum": {with(func(s *statsWire) { s.min, s.max = 9, 1 }), "differ from the minimum"},
		"markers out of order":  {with(func(s *statsWire) { s.q[1], s.q[2] = 4, 3 }), "heights out of order"},
		"few values unsorted":   {statsWire{n: 3, min: 1, max: 3, sum: 6, q: []float64{1, 3, 2}}, "heights out of order"},
		"first marker not min":  {with(func(s *statsWire) { s.min = 0 }), "differ from the minimum"},
		"last marker not max":   {with(func(s *statsWire) { s.max = 10 }), "differ from the minimum"},
		"first position at 1":   {with(func(s *statsWire) { s.pos[0] = 1 }), "positions out of order"},
		"positions not rising":  {with(func(s *statsWire) { s.pos[1] = 2 }), "positions out of order"},
		"last position at n":    {with(func(s *statsWire) { s.pos[2] = 7 }), "positions out of order"},
		"position past int64":   {with(func(s *statsWire) { s.pos[2] = math.MaxUint64 }), "positions out of order"},
		// The next fields are read as positions: which check fails depends
		// on their bytes.
		"five values, no places": {with(func(s *statsWire) { s.n = 5; s.pos = nil }), "restore profiler"},
		"count past int64":       {with(func(s *statsWire) { s.n = math.MaxUint64 }), "malformed"},
	}
	for name, c := range states {
		for _, blob := range [][]byte{
			encodeProfiles(profileWire{id: "x", speed: good}, profileWire{id: "y", speed: c.bad}),
			encodeProfiles(profileWire{id: "x", speed: c.bad, accel: few}, profileWire{id: "y", speed: good}),
			encodeProfiles(profileWire{id: "y", speed: few, accel: c.bad}),
		} {
			requireRejected(t, name, profiledFleet(t), blob, c.wantErr)
		}
	}
	valid := encodeProfiles(profileWire{id: "x", speed: good}, profileWire{id: "y", speed: few})
	framing := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"JSON from before the binary codec": {[]byte(`{"x":{"id":"x"}}`), "not a binary snapshot"},
		"the value-log layout (0xC3)":       {append([]byte{0xC3}, valid[1:]...), "not a binary snapshot"},
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
