package flp

import (
	"math"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// The reference implementations the allocation-free kernels must match bit
// for bit: the slice-of-slices least-squares fit, the window-copying
// roll-forward and the closure-based RMF* with its window-shrinking
// back-test, as they stood before the kernels became fixed-size. They are
// oracles only; nothing outside the tests calls them.

type legacyWindow struct {
	enu    *geo.ENU
	pts    []pt
	heads  []float64
	speeds []float64
	vrates []float64
	maxLen int
}

func (w *legacyWindow) observe(r mobility.Report) {
	if w.enu == nil {
		w.enu = geo.NewENU(r.Pos)
	}
	x, y := w.enu.Forward(r.Pos)
	w.pts = append(w.pts, pt{x, y})
	w.heads = append(w.heads, r.Heading)
	w.speeds = append(w.speeds, r.SpeedKn)
	w.vrates = append(w.vrates, r.VRateFS)
	if len(w.pts) > w.maxLen {
		w.pts = w.pts[1:]
		w.heads = w.heads[1:]
		w.speeds = w.speeds[1:]
		w.vrates = w.vrates[1:]
	}
}

func (w *legacyWindow) len() int { return len(w.pts) }

func (w *legacyWindow) last() pt { return w.pts[len(w.pts)-1] }

type legacyRMF struct {
	f   int
	win *legacyWindow
}

func newLegacyRMF(f int) *legacyRMF {
	if f < 1 {
		f = 2
	}
	return &legacyRMF{f: f, win: &legacyWindow{maxLen: 4*f + 8}}
}

func (r *legacyRMF) Name() string { return "legacy-rmf" }

func (r *legacyRMF) Observe(rep mobility.Report) { r.win.observe(rep) }

func (r *legacyRMF) Predict(k int) []geo.Point {
	coef := legacyFitRMF(r.win.pts, r.f)
	if coef == nil {
		return nil
	}
	return legacyRollForward(r.win, coef, k)
}

func legacyFitRMF(pts []pt, f int) []float64 {
	rows := len(pts) - f
	if rows < f+1 {
		return nil
	}
	ata := make([][]float64, f)
	atb := make([]float64, f)
	for i := range ata {
		ata[i] = make([]float64, f)
	}
	for t := f; t < len(pts); t++ {
		for _, dim := range [2]int{0, 1} {
			var target float64
			if dim == 0 {
				target = pts[t].x
			} else {
				target = pts[t].y
			}
			row := make([]float64, f)
			for i := 0; i < f; i++ {
				if dim == 0 {
					row[i] = pts[t-1-i].x
				} else {
					row[i] = pts[t-1-i].y
				}
			}
			for i := 0; i < f; i++ {
				for j := 0; j < f; j++ {
					ata[i][j] += row[i] * row[j]
				}
				atb[i] += row[i] * target
			}
		}
	}
	var scale float64
	for i := 0; i < f; i++ {
		scale += ata[i][i]
	}
	lambda := 1e-8 * (scale/float64(f) + 1)
	for i := 0; i < f; i++ {
		ata[i][i] += lambda
	}
	return legacySolveLinear(ata, atb)
}

func legacySolveLinear(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil
		}
		m[col], m[p] = m[p], m[col]
		for r := col + 1; r < n; r++ {
			factor := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x
}

func legacyRollForward(w *legacyWindow, coef []float64, k int) []geo.Point {
	f := len(coef)
	hist := append([]pt(nil), w.pts...)
	out := make([]geo.Point, 0, k)
	for step := 0; step < k; step++ {
		var nx, ny float64
		n := len(hist)
		for i := 0; i < f; i++ {
			nx += coef[i] * hist[n-1-i].x
			ny += coef[i] * hist[n-1-i].y
		}
		hist = append(hist, pt{nx, ny})
		out = append(out, w.enu.Inverse(nx, ny))
	}
	return out
}

type legacyRMFStar struct {
	win            *legacyWindow
	turnThreshold  float64
	vrateThreshold float64
}

func newLegacyRMFStar() *legacyRMFStar {
	return &legacyRMFStar{win: &legacyWindow{maxLen: 28}, turnThreshold: 1.5, vrateThreshold: 8}
}

func (r *legacyRMFStar) Name() string { return "legacy-rmf*" }

func (r *legacyRMFStar) Observe(rep mobility.Report) { r.win.observe(rep) }

func (r *legacyRMFStar) nonLinearPhase() bool {
	n := r.win.len()
	if n < 4 {
		return false
	}
	turn := 0.0
	for i := n - 3; i < n; i++ {
		turn += geo.AngleDiff(r.win.heads[i-1], r.win.heads[i])
	}
	if math.Abs(turn)/3 > r.turnThreshold {
		return true
	}
	return math.Abs(r.win.vrates[n-1]) > r.vrateThreshold
}

func (r *legacyRMFStar) Predict(k int) []geo.Point {
	if r.win.len() < 4 {
		return nil
	}
	if !r.nonLinearPhase() {
		return r.linear(k)
	}
	primitives := []func(int) []geo.Point{
		r.linear,
		r.circular,
		func(k int) []geo.Point { return r.rmfPredict(2, k) },
		func(k int) []geo.Point { return r.rmfPredict(3, k) },
	}
	best := -1
	bestErr := math.Inf(1)
	const holdout = 3
	if r.win.len() >= 8+holdout {
		for i, prim := range primitives {
			e := r.backtest(prim, holdout)
			if e >= 0 && e < bestErr {
				bestErr = e
				best = i
			}
		}
	}
	if best < 0 {
		best = 1
	}
	out := primitives[best](k)
	if out == nil {
		out = r.linear(k)
	}
	return out
}

func (r *legacyRMFStar) backtest(prim func(int) []geo.Point, h int) float64 {
	n := r.win.len()
	full := *r.win
	r.win.pts = full.pts[:n-h]
	r.win.heads = full.heads[:n-h]
	r.win.speeds = full.speeds[:n-h]
	r.win.vrates = full.vrates[:n-h]
	preds := prim(h)
	*r.win = full
	if preds == nil {
		return -1
	}
	var sum float64
	for i, p := range preds {
		px, py := r.win.enu.Forward(p)
		actual := full.pts[n-h+i]
		sum += math.Hypot(px-actual.x, py-actual.y)
	}
	return sum / float64(h)
}

func (r *legacyRMFStar) linear(k int) []geo.Point {
	n := r.win.len()
	if n < 2 {
		return nil
	}
	span := 4
	if n-1 < span {
		span = n - 1
	}
	vx := (r.win.pts[n-1].x - r.win.pts[n-1-span].x) / float64(span)
	vy := (r.win.pts[n-1].y - r.win.pts[n-1-span].y) / float64(span)
	out := make([]geo.Point, 0, k)
	cur := r.win.last()
	for step := 1; step <= k; step++ {
		out = append(out, r.win.enu.Inverse(cur.x+vx*float64(step), cur.y+vy*float64(step)))
	}
	return out
}

func (r *legacyRMFStar) circular(k int) []geo.Point {
	n := r.win.len()
	if n < 4 {
		return nil
	}
	span := 5
	if n-1 < span {
		span = n - 1
	}
	var turn float64
	for i := n - span; i < n; i++ {
		turn += geo.AngleDiff(r.win.heads[i-1], r.win.heads[i])
	}
	turnPerStep := turn / float64(span)
	dx := r.win.pts[n-1].x - r.win.pts[n-2].x
	dy := r.win.pts[n-1].y - r.win.pts[n-2].y
	speed := math.Hypot(dx, dy)
	heading := math.Atan2(dx, dy)
	out := make([]geo.Point, 0, k)
	cur := r.win.last()
	for step := 1; step <= k; step++ {
		heading += geo.Radians(turnPerStep)
		cur = pt{cur.x + speed*math.Sin(heading), cur.y + speed*math.Cos(heading)}
		out = append(out, r.win.enu.Inverse(cur.x, cur.y))
	}
	return out
}

func (r *legacyRMFStar) rmfPredict(f, k int) []geo.Point {
	coef := legacyFitRMF(r.win.pts, f)
	if coef == nil {
		return nil
	}
	return legacyRollForward(r.win, coef, k)
}
