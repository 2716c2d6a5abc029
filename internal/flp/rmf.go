// Package flp implements the Future Location Prediction component of
// Section 5: the Recursive Motion Function (RMF) of Tao et al. (SIGMOD
// 2004) as the state-of-the-art baseline, and the paper's enhanced RMF*,
// which interleaves linear extrapolation on steady flight phases with
// motion-pattern matching (differential approximators for turns and
// vertical transitions) triggered by drifts to non-linear motion.
//
// Predictors are online and per-mover: feed reports with Observe, ask for
// the next k positions with Predict. All prediction happens in a local ENU
// plane anchored at the first observed position.
package flp

import (
	"math"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// Predictor is an online future-location predictor for a single mover.
type Predictor interface {
	// Name identifies the predictor in evaluation reports.
	Name() string
	// Observe feeds the next report (in time order).
	Observe(r mobility.Report)
	// Predict returns the predicted positions 1..k sampling steps ahead.
	// It returns nil when the predictor has too little history.
	Predict(k int) []geo.Point
}

// pt is a position in the local plane.
type pt struct{ x, y float64 }

// maxDepth bounds the recurrence depth f of every RMF fit. The least-squares
// kernel keeps its normal equations in fixed-size arrays of this dimension
// on the stack, so NewRMF clamps f to it.
const maxDepth = 5

// window keeps the most recent maxLen plane positions and headings, plus
// the latest vertical rate — all a primitive or the phase test reads. The
// two buffers are allocated once at twice maxLen and never regrow: a full
// window slides its offset up by one, and only when the view reaches the end
// of the buffers is it copied back to the front, once every maxLen+1
// reports.
type window struct {
	enu    *geo.ENU
	pts    []pt      // buffer; the view is pts[off : off+n]
	heads  []float64 // buffer, parallel to pts
	off, n int
	vrate  float64 // the latest report's vertical rate
	maxLen int
}

func newWindow(maxLen int) *window {
	return &window{
		pts:    make([]pt, 2*maxLen),
		heads:  make([]float64, 2*maxLen),
		maxLen: maxLen,
	}
}

func (w *window) observe(r mobility.Report) {
	if w.enu == nil {
		w.enu = geo.NewENU(r.Pos)
	}
	x, y := w.enu.Forward(r.Pos)
	w.push(pt{x, y}, r.Heading)
	w.vrate = r.VRateFS
}

// push appends one entry, dropping the oldest from a full window.
func (w *window) push(p pt, head float64) {
	if w.n == w.maxLen {
		w.off++
		w.n--
	}
	if w.off+w.n == len(w.pts) {
		copy(w.pts, w.pts[w.off:])
		copy(w.heads, w.heads[w.off:])
		w.off = 0
	}
	w.pts[w.off+w.n] = p
	w.heads[w.off+w.n] = head
	w.n++
}

func (w *window) len() int { return w.n }

// points is the window's plane positions, oldest first.
func (w *window) points() []pt { return w.pts[w.off : w.off+w.n] }

// motion is a read-only view of the first n entries of a window: what a
// motion primitive predicts from. The hold-out back-test hands primitives a
// shorter view instead of shrinking the window.
type motion struct {
	enu   *geo.ENU
	pts   []pt
	heads []float64
}

func (w *window) motion(n int) motion {
	return motion{enu: w.enu, pts: w.pts[w.off : w.off+n], heads: w.heads[w.off : w.off+n]}
}

// RMF is the baseline Recursive Motion Function predictor with system
// parameter f: position p_t is modelled as a linear recurrence
// p_t = Σ_{i=1..f} c_i · p_{t-i} with scalar coefficients shared by both
// coordinates, fitted by regularised least squares over the recent window.
// The recurrence captures linear, polynomial and circular motion depending
// on the coefficients (Tao et al., §4).
type RMF struct {
	f   int
	win *window
}

// NewRMF returns an RMF predictor with recurrence depth f (typically 2–5;
// depths above 5 are clamped to 5).
func NewRMF(f int) *RMF {
	if f < 1 {
		f = 2
	}
	if f > maxDepth {
		f = maxDepth
	}
	return &RMF{f: f, win: newWindow(4*f + 8)}
}

func (r *RMF) Name() string { return "rmf" }

// Observe implements Predictor.
func (r *RMF) Observe(rep mobility.Report) { r.win.observe(rep) }

// Predict implements Predictor.
func (r *RMF) Predict(k int) []geo.Point {
	pts := r.win.points()
	coef, ok := fitRMF(pts, r.f)
	if !ok {
		return nil
	}
	return rollForward(make([]geo.Point, 0, k), r.win.enu, pts, &coef, r.f, k)
}

// rmf appends the k-step prediction of the depth-f recurrence fitted to the
// view; ok is false when the view is too short or the fit is singular.
func (m motion) rmf(dst []geo.Point, f, k int) (out []geo.Point, ok bool) {
	coef, ok := fitRMF(m.pts, f)
	if !ok {
		return dst, false
	}
	return rollForward(dst, m.enu, m.pts, &coef, f, k), true
}

// augmented is the system [A | b] of at most maxDepth equations, one row
// per equation with b in column n.
type augmented [maxDepth][maxDepth + 1]float64

// fitRMF solves the least-squares recurrence coefficients over pts; ok is
// false when there are too few points or the system is singular. A small
// ridge term keeps the normal equations well-conditioned on nearly collinear
// (straight-line) motion. f must be in [1, maxDepth].
func fitRMF(pts []pt, f int) (coef [maxDepth]float64, ok bool) {
	rows := len(pts) - f
	if rows < f+1 {
		return coef, false
	}
	// Normal equations AᵀA c = Aᵀb. Every point t contributes one regression
	// row per coordinate (the f points before it, newest first); each entry
	// accumulates the x row's product, then the y row's.
	var m augmented
	for t := f; t < len(pts); t++ {
		var rx, ry [maxDepth]float64
		for i := 0; i < f; i++ {
			rx[i], ry[i] = pts[t-1-i].x, pts[t-1-i].y
		}
		tx, ty := pts[t].x, pts[t].y
		for i := 0; i < f; i++ {
			mi, xi, yi := &m[i], rx[i], ry[i]
			for j := i; j < f; j++ {
				v := mi[j]
				v += xi * rx[j]
				v += yi * ry[j]
				mi[j] = v
			}
			v := mi[f]
			v += xi * tx
			v += yi * ty
			mi[f] = v
		}
	}
	// AᵀA is symmetric bit for bit — products commute and mirrored entries
	// accumulate in the same order — so only its upper triangle is summed.
	for i := 1; i < f; i++ {
		for j := 0; j < i; j++ {
			m[i][j] = m[j][i]
		}
	}
	// Ridge regularisation scaled to the data magnitude.
	var scale float64
	for i := 0; i < f; i++ {
		scale += m[i][i]
	}
	lambda := 1e-8 * (scale/float64(f) + 1)
	for i := 0; i < f; i++ {
		m[i][i] += lambda
	}
	return solveLinear(&m, f)
}

// solveLinear solves the first n equations of m in place via Gaussian
// elimination with partial pivoting; ok is false for singular systems.
func solveLinear(m *augmented, n int) (x [maxDepth]float64, ok bool) {
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return x, false
		}
		m[col], m[p] = m[p], m[col]
		for r := col + 1; r < n; r++ {
			factor := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, true
}

// rollForward applies the depth-f recurrence k steps ahead of pts, appending
// the unprojected positions to dst. It carries only the f most recent plane
// points, newest first. len(pts) must be at least f.
func rollForward(dst []geo.Point, enu *geo.ENU, pts []pt, coef *[maxDepth]float64, f, k int) []geo.Point {
	var recent [maxDepth]pt
	for i := 0; i < f; i++ {
		recent[i] = pts[len(pts)-1-i]
	}
	for step := 0; step < k; step++ {
		var nx, ny float64
		for i := 0; i < f; i++ {
			nx += coef[i] * recent[i].x
			ny += coef[i] * recent[i].y
		}
		copy(recent[1:f], recent[:f-1])
		recent[0] = pt{nx, ny}
		dst = append(dst, enu.Inverse(nx, ny))
	}
	return dst
}
