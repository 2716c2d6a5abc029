package va

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/mobility"
	"datacron/internal/synopses"
)

// Dashboard assembles the current situational picture for the real-time
// visualization endpoint of Figure 13: the latest position per mover, the
// most recent critical points and discovered relations, active predictions,
// and a weather summary. It is safe for concurrent writers (the pipeline's
// consumers) and readers (the UI poll).
type Dashboard struct {
	mu          sync.RWMutex
	positions   map[string]mobility.Report
	criticals   ring[synopses.CriticalPoint]
	links       ring[linkdisc.Link]
	predictions map[string][]geo.Point
	events      ring[string]
	maxKeep     int
}

// ring keeps the most recent entries added to it, at most max of them: it
// grows to max and then overwrites its oldest entry, so an add never moves
// the ones kept.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest entry once buf holds max
}

func (r *ring[T]) add(v T, max int) {
	if len(r.buf) < max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// list returns a copy of the entries, oldest first; nil when there are none.
func (r *ring[T]) list() []T {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// NewDashboard returns an empty dashboard keeping at most maxKeep recent
// critical points, links and event notes.
func NewDashboard(maxKeep int) *Dashboard {
	if maxKeep <= 0 {
		maxKeep = 500
	}
	return &Dashboard{
		positions:   make(map[string]mobility.Report),
		predictions: make(map[string][]geo.Point),
		maxKeep:     maxKeep,
	}
}

// UpdatePosition records a mover's latest position.
func (d *Dashboard) UpdatePosition(r mobility.Report) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.positions[r.ID]; !ok || r.Time.After(cur.Time) {
		d.positions[r.ID] = r
	}
}

// AddCritical appends a synopsis critical point.
func (d *Dashboard) AddCritical(cp synopses.CriticalPoint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.criticals.add(cp, d.maxKeep)
}

// AddLink appends a discovered relation.
func (d *Dashboard) AddLink(l linkdisc.Link) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.links.add(l, d.maxKeep)
}

// SetPrediction stores the current future-location prediction of a mover.
func (d *Dashboard) SetPrediction(moverID string, points []geo.Point) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.predictions[moverID] = points
}

// AddEventNote appends a forecast/detection notice (e.g. "danger of
// collision", "heading reversal expected in 2–4 steps").
func (d *Dashboard) AddEventNote(note string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.events.add(note, d.maxKeep)
}

// Snapshot is the JSON-serialisable situational picture.
type Snapshot struct {
	Time        time.Time                `json:"time"`
	Positions   []mobility.Report        `json:"positions"`
	Criticals   []synopses.CriticalPoint `json:"criticals"`
	Links       []linkdisc.Link          `json:"links"`
	Predictions map[string][]geo.Point   `json:"predictions"`
	Events      []string                 `json:"events"`
}

// Snapshot captures the current picture at the given instant.
func (d *Dashboard) Snapshot(now time.Time) Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := Snapshot{
		Time:        now,
		Criticals:   d.criticals.list(),
		Links:       d.links.list(),
		Events:      d.events.list(),
		Predictions: make(map[string][]geo.Point, len(d.predictions)),
	}
	for id, pts := range d.predictions {
		s.Predictions[id] = append([]geo.Point(nil), pts...)
	}
	for _, r := range d.positions {
		s.Positions = append(s.Positions, r)
	}
	sort.Slice(s.Positions, func(i, j int) bool { return s.Positions[i].ID < s.Positions[j].ID })
	return s
}

// MarshalJSON renders the snapshot for the Kafka-backed endpoint.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	return json.Marshal(alias(s))
}
