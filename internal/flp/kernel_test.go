package flp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/wire"
)

// climbingTrack is a straight track whose vertical rate crosses RMF*'s
// threshold in the middle third, so pattern matching runs on straight motion.
func climbingTrack(n int) *mobility.Trajectory {
	tr := straightTrack(n, 120, 8*time.Second)
	for i := n / 3; i < 2*n/3; i++ {
		tr.Reports[i].VRateFS = 25
		tr.Reports[i].AltFt = float64(i) * 200
	}
	return tr
}

// noisyTrack wanders: heading random-walks with occasional sharp turns, speed
// jitters, positions carry metre-scale noise and the vertical rate flips.
func noisyTrack(seed int64, n int) *mobility.Trajectory {
	rnd := rand.New(rand.NewSource(seed))
	tr := &mobility.Trajectory{ID: "n"}
	pos := geo.Pt(23.5, 37.9)
	heading, speed := 40.0, 9.0
	for i := 0; i < n; i++ {
		rep := mobility.Report{
			ID: "n", Time: t0.Add(time.Duration(i) * 10 * time.Second),
			Pos:     geo.Destination(pos, rnd.Float64()*360, rnd.Float64()*15),
			SpeedKn: speed / mobility.KnotsToMS, Heading: heading,
		}
		if rnd.Intn(9) == 0 {
			rep.VRateFS = rnd.NormFloat64() * 20
		}
		tr.Reports = append(tr.Reports, rep)
		heading += rnd.NormFloat64() * 2
		if rnd.Intn(15) == 0 {
			heading += rnd.Float64()*120 - 60
		}
		heading = geo.NormalizeHeading(heading)
		speed = math.Max(0.5, speed+rnd.NormFloat64()*0.4)
		pos = geo.Destination(pos, heading, speed*10)
	}
	return tr
}

func oracleTracks() map[string]*mobility.Trajectory {
	return map[string]*mobility.Trajectory{
		"straight": straightTrack(60, 100, 8*time.Second),
		"turning":  circleTrack(90, 100, 4, 8*time.Second),
		"climbing": climbingTrack(90),
		"noisy-1":  noisyTrack(1, 400),
		"noisy-2":  noisyTrack(2, 400),
	}
}

// samePoints reports whether two predictions are identical bit for bit,
// nil-ness included.
func samePoints(a, b []geo.Point) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lon) != math.Float64bits(b[i].Lon) ||
			math.Float64bits(a[i].Lat) != math.Float64bits(b[i].Lat) {
			return false
		}
	}
	return true
}

// TestPredictMatchesLegacyBitForBit walks every track from its first report,
// so windows shorter than 4 and shorter than 8+holdout are covered, and
// compares each predictor against its legacy twin at every step.
func TestPredictMatchesLegacyBitForBit(t *testing.T) {
	type pair struct {
		name        string
		got, oracle func() Predictor
	}
	pairs := []pair{{"rmf*", func() Predictor { return NewRMFStar(8 * time.Second) }, func() Predictor { return newLegacyRMFStar() }}}
	for f := 1; f <= maxDepth; f++ {
		f := f
		pairs = append(pairs, pair{fmt.Sprintf("rmf-f%d", f),
			func() Predictor { return NewRMF(f) }, func() Predictor { return newLegacyRMF(f) }})
	}
	for trackName, tr := range oracleTracks() {
		for _, pr := range pairs {
			got, oracle := pr.got(), pr.oracle()
			predicted, patternMatched := 0, 0
			for i, rep := range tr.Reports {
				got.Observe(rep)
				oracle.Observe(rep)
				for _, k := range []int{0, 3, 8} {
					g, w := got.Predict(k), oracle.Predict(k)
					if !samePoints(g, w) {
						t.Fatalf("%s on %s, report %d, k=%d:\n got %v\nwant %v", pr.name, trackName, i, k, g, w)
					}
					if g != nil {
						predicted++
					}
				}
				if s, ok := got.(*RMFStar); ok && s.nonLinearPhase() {
					patternMatched++
				}
			}
			if predicted == 0 {
				t.Errorf("%s on %s: never predicted", pr.name, trackName)
			}
			if pr.name == "rmf*" && trackName != "straight" && patternMatched == 0 {
				t.Errorf("rmf* on %s: the pattern-matching branch never ran", trackName)
			}
		}
	}
}

func TestNewRMFClampsDepth(t *testing.T) {
	if got := NewRMF(maxDepth + 4).f; got != maxDepth {
		t.Errorf("depth = %d, want clamp to %d", got, maxDepth)
	}
	if got := NewRMF(0).f; got != 2 {
		t.Errorf("depth = %d, want default 2", got)
	}
}

// TestWindowShiftsInPlace pins that a full window drops its oldest entry by
// sliding within its buffers, across several wraps back to their front,
// without regrowing or moving them, and keeps only the latest vertical rate.
func TestWindowShiftsInPlace(t *testing.T) {
	w := newWindow(5)
	base := &w.pts[0]
	for i := 0; i < 40; i++ {
		w.observe(mobility.Report{Pos: geo.Pt(0, 45), Heading: float64(i), SpeedKn: float64(i), VRateFS: float64(i)})
		if len(w.pts) != 10 || len(w.heads) != 10 || &w.pts[0] != base {
			t.Fatalf("report %d: buffers %d/%d, moved=%v", i, len(w.pts), len(w.heads), &w.pts[0] != base)
		}
		m := w.motion(w.len())
		for j, h := range m.heads {
			if want := float64(i - w.len() + 1 + j); h != want {
				t.Fatalf("report %d: entry %d = %v, want %v", i, j, h, want)
			}
		}
	}
	if w.len() != 5 || w.vrate != 39 {
		t.Fatalf("window len %d, vrate %v; want 5, 39", w.len(), w.vrate)
	}
}

// TestObservePredictAllocatesOnlyTheResult is the allocation gate: once a
// predictor exists, Observe+Predict allocates the returned slice and nothing
// else, in the linear phase and in the pattern-matching phase.
func TestObservePredictAllocatesOnlyTheResult(t *testing.T) {
	cases := map[string]struct {
		tr        *mobility.Trajectory
		nonLinear bool
	}{
		"linear":           {straightTrack(400, 100, 8*time.Second), false},
		"pattern-matching": {circleTrack(400, 100, 4, 8*time.Second), true},
	}
	for name, c := range cases {
		p := NewRMFStar(8 * time.Second)
		i := 0
		for ; i < 60; i++ {
			p.Observe(c.tr.Reports[i])
		}
		allocs := testing.AllocsPerRun(200, func() {
			p.Observe(c.tr.Reports[i])
			i++
			if p.nonLinearPhase() != c.nonLinear {
				t.Fatalf("%s: wrong phase at report %d", name, i)
			}
			if p.Predict(8) == nil {
				t.Fatalf("%s: no prediction", name)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: Observe+Predict = %.1f allocs, want ≤ 1", name, allocs)
		}
	}
}

func TestSolveLinear(t *testing.T) {
	// 2x + y = 5; x - y = 1 → x=2, y=1.
	m := augmented{{2, 1, 5}, {1, -1, 1}}
	x, ok := solveLinear(&m, 2)
	if !ok || math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Errorf("solve = %v, %v", x, ok)
	}
	// Singular system.
	m = augmented{{1, 1, 1}, {2, 2, 2}}
	if _, ok := solveLinear(&m, 2); ok {
		t.Error("singular system should not solve")
	}
}

// TestRestoreRejectsCorruptBlobs asserts "error ⇒ predictor unchanged" for
// every way a window blob can be wrong.
func TestRestoreRejectsCorruptBlobs(t *testing.T) {
	long := rmfStarSnapshot{Origin: &geo.Point{Lon: 0, Lat: 45}}
	for i := 0; i < 29; i++ {
		long.Pts = append(long.Pts, [2]float64{float64(i), 0})
		long.Heads = append(long.Heads, 90)
	}
	longBlob, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		blob, wantErr string
	}{
		"not json":             {`{"pts":`, "restore rmf*"},
		"inconsistent lengths": {`{"pts":[[0,0],[1,1]],"heads":[90]}`, "inconsistent window lengths"},
		"longer than maxLen":   {string(longBlob), "exceeds capacity"},
		"non-finite coordinate": {`{"pts":[[1e400,0]],"heads":[90]}`,
			"restore rmf*"},
	}
	tr := circleTrack(40, 100, 4, 8*time.Second)
	for name, c := range cases {
		p := NewRMFStar(8 * time.Second)
		for _, rep := range tr.Reports {
			p.Observe(rep)
		}
		before, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wantPred := p.Predict(8)
		err = p.Restore([]byte(c.blob))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
			continue
		}
		after, _ := p.Snapshot()
		if !bytes.Equal(before, after) || !samePoints(p.Predict(8), wantPred) {
			t.Errorf("%s: a rejected restore changed the predictor", name)
		}
	}
	// JSON cannot carry NaN or ±Inf (the decoder refuses 1e400 above), so the
	// coordinate check's predicate is pinned directly.
	if finite(math.NaN()) || finite(math.Inf(-1)) || !finite(-1e308) {
		t.Error("finite misclassifies")
	}
}

// TestRestoreRoundTrip: a full window survives Snapshot→Restore and the
// restored predictor keeps sliding in place and predicting identically.
func TestRestoreRoundTrip(t *testing.T) {
	tr := circleTrack(80, 100, 4, 8*time.Second)
	a, b := NewRMFStar(8*time.Second), NewRMFStar(8*time.Second)
	for _, rep := range tr.Reports[:50] {
		a.Observe(rep)
	}
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for i, rep := range tr.Reports[50:] {
		a.Observe(rep)
		b.Observe(rep)
		if !samePoints(a.Predict(8), b.Predict(8)) {
			t.Fatalf("restored predictor diverged at report %d", 50+i)
		}
	}
	rest := tr.Reports[len(tr.Reports)-1]
	if allocs := testing.AllocsPerRun(100, func() { b.Observe(rest) }); allocs != 0 {
		t.Errorf("Observe on a restored predictor = %.1f allocs, want 0", allocs)
	}
}

// stateWire mirrors the RMF* state record field for field, and encode
// writes it exactly as AppendState does — including the invalid states
// AppendState never would. Test-only.
type stateWire struct {
	origin *geo.Point
	pts    [][3]float64 // x, y, heading
	vrate  float64
}

func (s stateWire) encode() []byte {
	buf := wire.AppendBool(nil, s.origin != nil)
	if s.origin != nil {
		buf = wire.AppendFloat64(buf, s.origin.Lon)
		buf = wire.AppendFloat64(buf, s.origin.Lat)
	}
	buf = wire.AppendUvarint(buf, uint64(len(s.pts)))
	for _, p := range s.pts {
		for _, v := range p {
			buf = wire.AppendFloat64(buf, v)
		}
	}
	return wire.AppendFloat64(buf, s.vrate)
}

// readState decodes a whole state record.
func readState(b []byte) (*RMFStar, error) {
	r := wire.NewReader(b)
	p, err := ReadRMFStar(r, 8*time.Second)
	if err == nil {
		err = r.Err()
	}
	return p, err
}

// TestStateRecordRoundTrip pins AppendState's bytes to the documented
// layout, and checks that a predictor read back from them — empty, partly
// filled, full and wrapped — predicts bit for bit like the original from
// then on, at the record's bounded size.
func TestStateRecordRoundTrip(t *testing.T) {
	tr := circleTrack(120, 100, 4, 8*time.Second)
	for _, seen := range []int{0, 1, 5, 28, 29, 57, 90} {
		a := NewRMFStar(8 * time.Second)
		for _, rep := range tr.Reports[:seen] {
			a.Observe(rep)
		}
		rec := a.AppendState(make([]byte, 0, a.StateLen()))
		if len(rec) != cap(rec) {
			t.Fatalf("after %d reports: record of %d bytes, StateLen says %d", seen, len(rec), cap(rec))
		}
		if maxLen := 1 + 16 + 1 + 28*24 + 8; len(rec) > maxLen {
			t.Fatalf("after %d reports: record of %d bytes, more than the %d a full window takes", seen, len(rec), maxLen)
		}
		want := stateWire{vrate: a.win.vrate}
		if a.win.enu != nil {
			want.origin = &a.win.enu.Origin
		}
		m := a.win.motion(a.win.len())
		for i, p := range m.pts {
			want.pts = append(want.pts, [3]float64{p.x, p.y, m.heads[i]})
		}
		if !bytes.Equal(rec, want.encode()) {
			t.Fatalf("after %d reports: record differs from the documented layout:\n%x\n%x", seen, rec, want.encode())
		}
		b, err := readState(rec)
		if err != nil {
			t.Fatalf("after %d reports: %v", seen, err)
		}
		if again := b.AppendState(nil); !bytes.Equal(rec, again) {
			t.Fatalf("after %d reports: the read predictor writes another record", seen)
		}
		for i, rep := range tr.Reports[seen:] {
			a.Observe(rep)
			b.Observe(rep)
			if !samePoints(a.Predict(8), b.Predict(8)) {
				t.Fatalf("after %d reports: read predictor diverged at report %d", seen, seen+i)
			}
		}
	}
}

// TestReadRMFStarRejectsInvalidStates: every state Observe cannot produce
// from valid reports fails the read.
func TestReadRMFStarRejectsInvalidStates(t *testing.T) {
	origin := &geo.Point{Lon: 0, Lat: 45}
	window := func(n int) [][3]float64 {
		pts := make([][3]float64, n)
		for i := range pts {
			pts[i] = [3]float64{float64(i), 0, 90}
		}
		return pts
	}
	if _, err := readState(stateWire{origin: origin, pts: window(28)}.encode()); err != nil {
		t.Fatalf("a full window fails the read: %v", err)
	}
	with := func(i, k int, v float64) [][3]float64 {
		pts := window(4)
		pts[i][k] = v
		return pts
	}
	cases := map[string]struct {
		state   stateWire
		wantErr string
	}{
		"longer than maxLen":      {stateWire{origin: origin, pts: window(29)}, "exceeds capacity"},
		"points without origin":   {stateWire{pts: window(2)}, "without an origin"},
		"origin off the globe":    {stateWire{origin: &geo.Point{Lon: 200, Lat: 45}, pts: window(2)}, "invalid origin"},
		"NaN origin":              {stateWire{origin: &geo.Point{Lon: math.NaN(), Lat: 45}}, "invalid origin"},
		"NaN plane coordinate":    {stateWire{origin: origin, pts: with(2, 0, math.NaN())}, "non-finite plane coordinates at window index 2"},
		"infinite plane coord":    {stateWire{origin: origin, pts: with(3, 1, math.Inf(-1))}, "non-finite plane coordinates at window index 3"},
		"infinite heading":        {stateWire{origin: origin, pts: with(0, 2, math.Inf(1))}, "non-finite plane coordinates at window index 0"},
		"NaN vertical rate":       {stateWire{origin: origin, pts: window(3), vrate: math.NaN()}, "non-finite vertical rate"},
		"hostile window length":   {stateWire{origin: origin, pts: window(1 << 10)}, "exceeds capacity"},
		"truncated after a point": {stateWire{origin: origin, pts: window(3)}, "malformed"},
	}
	for name, c := range cases {
		b := c.state.encode()
		if name == "truncated after a point" {
			b = b[:len(b)-9]
		}
		_, err := readState(b)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
		}
	}
}
