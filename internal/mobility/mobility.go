// Package mobility defines the domain types exchanged between every stage of
// the datAcron pipeline: surveillance position reports, trajectories, and
// enriched (semantically annotated) points. It corresponds to the common
// vocabulary that, in the paper's architecture, the datAcron ontology
// provides across the maritime and ATM domains.
package mobility

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"datacron/internal/geo"
)

// Domain distinguishes the two datAcron application domains.
type Domain int

const (
	// Maritime covers vessel movement (AIS surveillance).
	Maritime Domain = iota
	// Aviation covers aircraft movement (ADS-B / IFS surveillance).
	Aviation
)

func (d Domain) String() string {
	switch d {
	case Maritime:
		return "maritime"
	case Aviation:
		return "aviation"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// Report is a single surveillance position report — the unit record of the
// raw data streams in Table 1 of the paper (AIS messages, ADS-B reports,
// IFS radar tracks).
type Report struct {
	ID      string    `json:"id"`              // mover identifier (MMSI / ICAO24)
	Time    time.Time `json:"t"`               // event time
	Pos     geo.Point `json:"pos"`             // longitude/latitude
	AltFt   float64   `json:"alt,omitempty"`   // altitude in feet (aviation)
	SpeedKn float64   `json:"sog"`             // speed over ground in knots
	Heading float64   `json:"cog"`             // course over ground in degrees
	VRateFS float64   `json:"vrate,omitempty"` // vertical rate in feet/second
	Source  string    `json:"src,omitempty"`   // producing source tag
}

// KnotsToMS converts knots to metres per second.
const KnotsToMS = 0.514444

// FeetToMeters converts feet to metres.
const FeetToMeters = 0.3048

// SpeedMS returns the speed over ground in metres per second.
func (r Report) SpeedMS() float64 { return r.SpeedKn * KnotsToMS }

// AltM returns the altitude in metres.
func (r Report) AltM() float64 { return r.AltFt * FeetToMeters }

// Valid performs the basic plausibility checks the in-situ cleaning step
// applies to raw records: coordinates in range, non-negative finite speed,
// finite heading, altitude and vertical rate, non-zero timestamp.
func (r Report) Valid() bool {
	if r.ID == "" || r.Time.IsZero() || !r.Pos.Valid() {
		return false
	}
	if !finite(r.SpeedKn) || r.SpeedKn < 0 || r.SpeedKn > 1200 {
		return false
	}
	return finite(r.Heading) && finite(r.AltFt) && finite(r.VRateFS)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Marshal encodes the report as JSON, mirroring the paper's "stream of
// messages in JSON" sources; the Table 1 experiment counts volumes in this
// form. The broker and checkpoints carry the binary codec (see codec.go).
func (r Report) Marshal() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// A Report contains no unmarshalable types; this cannot happen.
		panic(err)
	}
	return b
}

// Trajectory is a time-ordered sequence of reports of one mover.
type Trajectory struct {
	ID      string
	Reports []Report
}

// SortByTime sorts the trajectory's reports chronologically (stable).
func (tr *Trajectory) SortByTime() {
	sort.SliceStable(tr.Reports, func(i, j int) bool {
		return tr.Reports[i].Time.Before(tr.Reports[j].Time)
	})
}

// Duration returns the time spanned by the trajectory.
func (tr *Trajectory) Duration() time.Duration {
	if len(tr.Reports) < 2 {
		return 0
	}
	return tr.Reports[len(tr.Reports)-1].Time.Sub(tr.Reports[0].Time)
}

// Length returns the travelled great-circle distance in metres.
func (tr *Trajectory) Length() float64 {
	var d float64
	for i := 1; i < len(tr.Reports); i++ {
		d += geo.Haversine(tr.Reports[i-1].Pos, tr.Reports[i].Pos)
	}
	return d
}

// Bounds returns the spatial bounding box of the trajectory.
func (tr *Trajectory) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, p := range tr.Reports {
		r = r.ExtendPoint(p.Pos)
	}
	return r
}

// At interpolates the trajectory's position at time t between the two
// surrounding reports (clamping to the ends). ok is false for an empty
// trajectory.
func (tr *Trajectory) At(t time.Time) (geo.Point, bool) {
	n := len(tr.Reports)
	if n == 0 {
		return geo.Point{}, false
	}
	if !t.After(tr.Reports[0].Time) {
		return tr.Reports[0].Pos, true
	}
	if !t.Before(tr.Reports[n-1].Time) {
		return tr.Reports[n-1].Pos, true
	}
	i := sort.Search(n, func(i int) bool { return !tr.Reports[i].Time.Before(t) })
	a, b := tr.Reports[i-1], tr.Reports[i]
	span := b.Time.Sub(a.Time)
	if span <= 0 {
		return a.Pos, true
	}
	f := float64(t.Sub(a.Time)) / float64(span)
	return geo.Interpolate(a.Pos, b.Pos, f), true
}

// GroupByMover splits a report slice into per-mover trajectories, each
// sorted by time. The map key is the mover ID.
func GroupByMover(reports []Report) map[string]*Trajectory {
	out := make(map[string]*Trajectory)
	for _, r := range reports {
		tr, ok := out[r.ID]
		if !ok {
			tr = &Trajectory{ID: r.ID}
			out[r.ID] = tr
		}
		tr.Reports = append(tr.Reports, r)
	}
	for _, tr := range out {
		tr.SortByTime()
	}
	return out
}

// EnrichedPoint is a critical point carrying enrichment from link discovery
// and weather annotation: the paper's "semantically enriched trajectory"
// node. Annotations holds named scalar features (wind speed, distance to
// plan, ...); Tags holds categorical markers (area names, event types).
type EnrichedPoint struct {
	Report
	CriticalType string             // synopses critical-point type, if any
	Annotations  map[string]float64 // numeric enrichment features
	Tags         []string           // categorical enrichment
}

// NewEnrichedPoint wraps a report with empty enrichment.
func NewEnrichedPoint(r Report) EnrichedPoint {
	return EnrichedPoint{Report: r, Annotations: make(map[string]float64)}
}

// Annotation returns the named feature value or the provided default.
func (p EnrichedPoint) Annotation(name string, def float64) float64 {
	if v, ok := p.Annotations[name]; ok {
		return v
	}
	return def
}

// HasTag reports whether the point carries the given categorical tag.
func (p EnrichedPoint) HasTag(tag string) bool {
	for _, t := range p.Tags {
		if t == tag {
			return true
		}
	}
	return false
}
