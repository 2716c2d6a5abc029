package flp

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"datacron/internal/geo"
	"datacron/internal/wire"
)

// RMF* state record (wire package encoding), what the shard workers' mover
// table stores per mover:
//
//	bool hasOrigin | if hasOrigin: f64 lon | f64 lat |
//	uvarint n | n × (f64 x | f64 y | f64 heading), oldest first | f64 vrate
//
// The window holds at most maxLen entries, so the record is at most
// 1 + 16 + 1 + 28 × 24 + 8 bytes however long the run. The ENU plane is a
// function of its origin; thresholds and the sampling interval are
// configuration, rebuilt by the reader.

// StateLen is the exact size of the predictor's state record.
func (r *RMFStar) StateLen() int {
	n := r.win.len()
	size := 1 + wire.UvarintLen(uint64(n)) + 3*8*n + 8
	if r.win.enu != nil {
		size += 2 * 8
	}
	return size
}

// AppendState appends the predictor's state record to buf.
func (r *RMFStar) AppendState(buf []byte) []byte {
	w := r.win
	buf = wire.AppendBool(buf, w.enu != nil)
	if w.enu != nil {
		buf = wire.AppendFloat64(buf, w.enu.Origin.Lon)
		buf = wire.AppendFloat64(buf, w.enu.Origin.Lat)
	}
	m := w.motion(w.len())
	buf = wire.AppendUvarint(buf, uint64(len(m.pts)))
	for i, p := range m.pts {
		buf = wire.AppendFloat64(buf, p.x)
		buf = wire.AppendFloat64(buf, p.y)
		buf = wire.AppendFloat64(buf, m.heads[i])
	}
	return wire.AppendFloat64(buf, w.vrate)
}

// ReadRMFStar decodes a state record into a new RMF* predictor of the given
// sampling interval. A window longer than the predictor's capacity, points
// without an origin, an invalid origin or a non-finite coordinate, heading
// or vertical rate — none of which Observe produces from valid reports —
// fails the read. The caller checks r.Err once it has read the whole blob.
func ReadRMFStar(r *wire.Reader, sample time.Duration) (*RMFStar, error) {
	p := NewRMFStar(sample)
	w := p.win
	if r.Bool() {
		origin := geo.Point{Lon: r.Float64(), Lat: r.Float64()}
		if !r.Failed() && !origin.Valid() {
			return nil, errOrigin(origin)
		}
		w.enu = geo.NewENU(origin)
	}
	n := r.Count(3 * 8)
	if n > w.maxLen {
		return nil, errWindowLen(n, w.maxLen)
	}
	if n > 0 && w.enu == nil {
		return nil, errNoOrigin(n)
	}
	for i := 0; i < n && !r.Failed(); i++ {
		q, head := pt{x: r.Float64(), y: r.Float64()}, r.Float64()
		if !finite(q.x) || !finite(q.y) || !finite(head) {
			return nil, errNonFinitePoint(i)
		}
		w.push(q, head)
	}
	if w.vrate = r.Float64(); !finite(w.vrate) {
		return nil, errNonFiniteVRate(w.vrate)
	}
	return p, nil
}

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
		return errWindowLen(n, r.win.maxLen)
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

func errWindowLen(n, maxLen int) error {
	return fmt.Errorf("flp: restore rmf*: window of %d points exceeds capacity %d", n, maxLen)
}

func errNoOrigin(n int) error {
	return fmt.Errorf("flp: restore rmf*: window of %d points without an origin", n)
}

func errOrigin(p geo.Point) error {
	return fmt.Errorf("flp: restore rmf*: invalid origin %v", p)
}

func errNonFiniteVRate(v float64) error {
	return fmt.Errorf("flp: restore rmf*: non-finite vertical rate %v", v)
}
