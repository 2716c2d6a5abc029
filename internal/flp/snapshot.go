package flp

import (
	"encoding/json"
	"fmt"
	"math"

	"datacron/internal/geo"
)

// rmfStarSnapshot is the wire form of an RMFStar predictor's mutable state:
// the window's positions and headings, oldest first, and the latest vertical
// rate. Thresholds and the sampling interval are configuration, rebuilt by
// the restoring pipeline; the ENU plane is a function of its origin.
type rmfStarSnapshot struct {
	Origin *geo.Point   `json:"origin,omitempty"` // nil until first observation
	Pts    [][2]float64 `json:"pts,omitempty"`
	Heads  []float64    `json:"heads,omitempty"`
	VRate  float64      `json:"vrate,omitempty"`
}

// Snapshot serializes the predictor's window (checkpoint.Snapshotter).
func (r *RMFStar) Snapshot() ([]byte, error) {
	snap := rmfStarSnapshot{VRate: r.win.vrate}
	if r.win.enu != nil {
		origin := r.win.enu.Origin
		snap.Origin = &origin
	}
	if n := r.win.len(); n > 0 {
		m := r.win.motion(n)
		snap.Heads = m.heads
		snap.Pts = make([][2]float64, n)
		for i, p := range m.pts {
			snap.Pts[i] = [2]float64{p.x, p.y}
		}
	}
	return json.Marshal(snap)
}

// Restore replaces the predictor's window with a snapshot taken by Snapshot
// against an identically configured RMFStar. On error the predictor is left
// as it was.
func (r *RMFStar) Restore(data []byte) error {
	var snap rmfStarSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("flp: restore rmf*: %w", err)
	}
	n := len(snap.Pts)
	if n != len(snap.Heads) {
		return fmt.Errorf("flp: restore rmf*: inconsistent window lengths")
	}
	if n > r.win.maxLen {
		return fmt.Errorf("flp: restore rmf*: window of %d points exceeds capacity %d", n, r.win.maxLen)
	}
	for i, p := range snap.Pts {
		if !finite(p[0]) || !finite(p[1]) {
			return errNonFinitePoint(i)
		}
	}
	w := newWindow(r.win.maxLen)
	if snap.Origin != nil {
		w.enu = geo.NewENU(*snap.Origin)
	}
	for i, p := range snap.Pts {
		w.push(pt{x: p[0], y: p[1]}, snap.Heads[i])
	}
	w.vrate = snap.VRate
	r.win = w
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func errNonFinitePoint(i int) error {
	return fmt.Errorf("flp: restore rmf*: non-finite plane coordinates at window index %d", i)
}
