package flp

import (
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/mobility"
)

var t0 = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

// straightTrack builds a constant-velocity track heading east.
func straightTrack(n int, speedMS float64, dt time.Duration) *mobility.Trajectory {
	tr := &mobility.Trajectory{ID: "s"}
	pos := geo.Pt(0, 45)
	for i := 0; i < n; i++ {
		tr.Reports = append(tr.Reports, mobility.Report{
			ID: "s", Time: t0.Add(time.Duration(i) * dt), Pos: pos,
			SpeedKn: speedMS / mobility.KnotsToMS, Heading: 90,
		})
		pos = geo.Destination(pos, 90, speedMS*dt.Seconds())
	}
	return tr
}

// circleTrack builds a constant-turn-rate track.
func circleTrack(n int, speedMS, turnDegPerStep float64, dt time.Duration) *mobility.Trajectory {
	tr := &mobility.Trajectory{ID: "c"}
	pos := geo.Pt(0, 45)
	heading := 0.0
	for i := 0; i < n; i++ {
		tr.Reports = append(tr.Reports, mobility.Report{
			ID: "c", Time: t0.Add(time.Duration(i) * dt), Pos: pos,
			SpeedKn: speedMS / mobility.KnotsToMS, Heading: heading,
		})
		heading = geo.NormalizeHeading(heading + turnDegPerStep)
		pos = geo.Destination(pos, heading, speedMS*dt.Seconds())
	}
	return tr
}

func lastErr(t *testing.T, p Predictor, tr *mobility.Trajectory, k int) float64 {
	t.Helper()
	n := len(tr.Reports)
	for i := 0; i < n-k; i++ {
		p.Observe(tr.Reports[i])
	}
	preds := p.Predict(k)
	if preds == nil {
		t.Fatalf("%s: no prediction", p.Name())
	}
	return geo.Haversine(preds[k-1], tr.Reports[n-1].Pos)
}

func TestRMFOnStraightLine(t *testing.T) {
	tr := straightTrack(40, 100, 8*time.Second)
	err := lastErr(t, NewRMF(2), tr, 5)
	if err > 50 {
		t.Errorf("RMF straight-line error = %.1fm, want < 50", err)
	}
}

func TestRMFOnCircle(t *testing.T) {
	tr := circleTrack(60, 100, 4, 8*time.Second)
	err := lastErr(t, NewRMF(3), tr, 5)
	// The recurrence can represent circular motion; error should be small
	// relative to the 800m travelled over 5 steps.
	if err > 200 {
		t.Errorf("RMF circle error = %.1fm, want < 200", err)
	}
}

func TestRMFStarOnStraightLine(t *testing.T) {
	tr := straightTrack(40, 100, 8*time.Second)
	err := lastErr(t, NewRMFStar(8*time.Second), tr, 5)
	if err > 50 {
		t.Errorf("RMF* straight-line error = %.1fm, want < 50", err)
	}
}

func TestRMFStarOnCircle(t *testing.T) {
	tr := circleTrack(60, 100, 4, 8*time.Second)
	err := lastErr(t, NewRMFStar(8*time.Second), tr, 5)
	if err > 200 {
		t.Errorf("RMF* circle error = %.1fm, want < 200", err)
	}
}

func TestPredictTooEarly(t *testing.T) {
	p := NewRMF(3)
	if got := p.Predict(3); got != nil {
		t.Error("prediction with no history should be nil")
	}
	p.Observe(mobility.Report{ID: "x", Time: t0, Pos: geo.Pt(0, 45), Heading: 90})
	if got := p.Predict(3); got != nil {
		t.Error("prediction with 1 point should be nil")
	}
	s := NewRMFStar(8 * time.Second)
	if got := s.Predict(3); got != nil {
		t.Error("RMF* with no history should be nil")
	}
}

func TestEvaluateOnFlights(t *testing.T) {
	sim := gen.NewFlightSim(gen.FlightSimConfig{
		Seed: 12, NumFlights: 4,
		RoutePairs: [][2]int{{0, 1}}, // Barcelona–Madrid, as in the paper
	})
	_, reports := sim.Run()
	var trajs []*mobility.Trajectory
	for _, tr := range mobility.GroupByMover(reports) {
		trajs = append(trajs, tr)
	}
	res := Evaluate(func() Predictor { return NewRMFStar(8 * time.Second) }, trajs, 8, 10)
	if len(res) != 8 {
		t.Fatalf("lookahead rows = %d, want 8", len(res))
	}
	// Error grows with look-ahead.
	if res[7].MeanM <= res[0].MeanM {
		t.Errorf("error should grow with look-ahead: k1=%.0f k8=%.0f", res[0].MeanM, res[7].MeanM)
	}
	// Paper band: ~1–1.2 km average at 64 s look-ahead; allow generous slack
	// for the synthetic substrate but enforce the magnitude.
	if res[7].MeanM > 3_000 {
		t.Errorf("k=8 error %.0fm too large", res[7].MeanM)
	}
	if res[0].MeanM > 500 {
		t.Errorf("k=1 error %.0fm too large", res[0].MeanM)
	}
	for _, r := range res {
		if r.Count == 0 || r.P95M < r.P50M {
			t.Errorf("malformed row %+v", r)
		}
	}
}

func TestRMFStarBeatsRMFOnFlights(t *testing.T) {
	// The paper reports that base RMF has very low accuracy in this domain;
	// RMF* should do at least as well on the non-linear flight phases.
	sim := gen.NewFlightSim(gen.FlightSimConfig{Seed: 19, NumFlights: 4, RoutePairs: [][2]int{{0, 1}}})
	_, reports := sim.Run()
	var trajs []*mobility.Trajectory
	for _, tr := range mobility.GroupByMover(reports) {
		trajs = append(trajs, tr)
	}
	rmf := Evaluate(func() Predictor { return NewRMF(3) }, trajs, 8, 10)
	star := Evaluate(func() Predictor { return NewRMFStar(8 * time.Second) }, trajs, 8, 10)
	if star[7].MeanM >= rmf[7].MeanM {
		t.Errorf("RMF* (%.0fm) should beat RMF (%.0fm) at k=8", star[7].MeanM, rmf[7].MeanM)
	}
}
