package flp

import (
	"math"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// RMFStar is the paper's enhanced RMF: it runs in a cheap linear-
// extrapolation mode on steady (straight, level) phases, and when the
// recent motion drifts into a non-linear phase — a turn or a vertical
// transition — it activates pattern matching over a set of differential
// motion primitives (linear, constant-turn circular, and RMF recurrences of
// increasing depth), selecting the primitive with the lowest back-test error
// on the most recent points.
type RMFStar struct {
	win            *window
	sample         time.Duration // nominal sampling interval
	turnThreshold  float64       // deg per sample that flags a turn phase
	vrateThreshold float64
}

// NewRMFStar returns an RMF* predictor. sample is the stream's nominal
// report interval (8 s in the Figure 5(a) setting).
func NewRMFStar(sample time.Duration) *RMFStar {
	return &RMFStar{
		win:            newWindow(28),
		sample:         sample,
		turnThreshold:  1.5,
		vrateThreshold: 8,
	}
}

func (r *RMFStar) Name() string { return "rmf*" }

// Observe implements Predictor.
func (r *RMFStar) Observe(rep mobility.Report) {
	r.win.observe(rep)
}

// nonLinearPhase reports whether the recent motion drifts from straight
// level flight: a sustained heading change or a significant vertical rate —
// the same signals the synopses generator emits critical points for.
func (r *RMFStar) nonLinearPhase() bool {
	n := r.win.len()
	if n < 4 {
		return false
	}
	heads := r.win.motion(n).heads
	turn := 0.0
	for i := n - 3; i < n; i++ {
		turn += geo.AngleDiff(heads[i-1], heads[i])
	}
	if math.Abs(turn)/3 > r.turnThreshold {
		return true
	}
	return math.Abs(r.win.vrate) > r.vrateThreshold
}

// The motion primitives pattern matching chooses among, in back-test order:
// on equal error the earlier one wins.
const (
	primLinear = iota
	primCircular
	primRMF2
	primRMF3
	numPrimitives
)

// holdout is how many of the most recent points the back-test withholds.
const holdout = 3

// Predict implements Predictor.
func (r *RMFStar) Predict(k int) []geo.Point {
	if r.win.len() < 4 {
		return nil
	}
	return r.AppendPredict(make([]geo.Point, 0, k), k)
}

// AppendPredict appends the positions Predict returns to dst, so a caller
// that reuses dst predicts without allocating. It appends nothing while the
// predictor has too little history.
func (r *RMFStar) AppendPredict(dst []geo.Point, k int) []geo.Point {
	n := r.win.len()
	if n < 4 {
		return dst
	}
	m := r.win.motion(n)
	if !r.nonLinearPhase() {
		dst, _ = m.linear(dst, k)
		return dst
	}
	// Pattern matching: back-test each primitive on the last points.
	best := -1
	bestErr := math.Inf(1)
	if n >= 8+holdout {
		held, actual := r.win.motion(n-holdout), m.pts[n-holdout:]
		for prim := 0; prim < numPrimitives; prim++ {
			e := held.backtest(prim, actual)
			if e >= 0 && e < bestErr {
				bestErr = e
				best = prim
			}
		}
	}
	if best < 0 {
		best = primCircular // default to the circular primitive inside a turn
	}
	res, ok := m.predict(best, dst, k)
	if !ok {
		res, _ = m.linear(dst, k)
	}
	return res
}

// predict appends primitive prim's k-step prediction from the view to dst;
// ok is false when the primitive cannot predict from it.
func (m motion) predict(prim int, dst []geo.Point, k int) (out []geo.Point, ok bool) {
	switch prim {
	case primLinear:
		return m.linear(dst, k)
	case primCircular:
		return m.circular(dst, k)
	case primRMF2:
		return m.rmf(dst, 2, k)
	default:
		return m.rmf(dst, 3, k)
	}
}

// backtest predicts the withheld points actual (at most holdout of them)
// from the view with primitive prim and returns the mean error in metres
// (-1 when the primitive cannot predict). Predictions make the same
// Inverse→Forward round trip as emitted ones, so the error — and thereby the
// chosen primitive — is the error of what would have been emitted.
func (m motion) backtest(prim int, actual []pt) float64 {
	var buf [holdout]geo.Point
	preds, ok := m.predict(prim, buf[:0], len(actual))
	if !ok {
		return -1
	}
	var sum float64
	for i, p := range preds {
		px, py := m.enu.Forward(p)
		sum += math.Hypot(px-actual[i].x, py-actual[i].y)
	}
	return sum / float64(len(actual))
}

// linear extrapolates with the mean velocity of the last few points.
func (m motion) linear(dst []geo.Point, k int) (out []geo.Point, ok bool) {
	n := len(m.pts)
	if n < 2 {
		return dst, false
	}
	span := 4
	if n-1 < span {
		span = n - 1
	}
	vx := (m.pts[n-1].x - m.pts[n-1-span].x) / float64(span)
	vy := (m.pts[n-1].y - m.pts[n-1-span].y) / float64(span)
	cur := m.pts[n-1]
	for step := 1; step <= k; step++ {
		dst = append(dst, m.enu.Inverse(cur.x+vx*float64(step), cur.y+vy*float64(step)))
	}
	return dst, true
}

// circular is the constant-turn-rate primitive: it estimates the recent
// turn rate and ground speed and projects the arc forward — the appropriate
// differential approximator for coordinated turns.
func (m motion) circular(dst []geo.Point, k int) (out []geo.Point, ok bool) {
	n := len(m.pts)
	if n < 4 {
		return dst, false
	}
	span := 5
	if n-1 < span {
		span = n - 1
	}
	// Turn rate per sample from headings; speed from displacement.
	var turn float64
	for i := n - span; i < n; i++ {
		turn += geo.AngleDiff(m.heads[i-1], m.heads[i])
	}
	turnPerStep := turn / float64(span)
	dx := m.pts[n-1].x - m.pts[n-2].x
	dy := m.pts[n-1].y - m.pts[n-2].y
	speed := math.Hypot(dx, dy)
	heading := math.Atan2(dx, dy) // plane bearing (x east, y north)
	cur := m.pts[n-1]
	for step := 1; step <= k; step++ {
		heading += geo.Radians(turnPerStep)
		cur = pt{cur.x + speed*math.Sin(heading), cur.y + speed*math.Cos(heading)}
		dst = append(dst, m.enu.Inverse(cur.x, cur.y))
	}
	return dst, true
}
