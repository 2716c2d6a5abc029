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
// shard workers and merge) and readers (the UI poll).
//
// Each mover's position and prediction live in its own Slot, which the one
// shard worker that owns the mover writes under the slot's mutex; mu guards
// the slot table and the recent lists.
type Dashboard struct {
	mu        sync.RWMutex
	slots     map[string]*Slot
	criticals ring[synopses.CriticalPoint]
	links     ring[linkdisc.Link]
	events    ring[string]
	maxKeep   int
}

// Slot is one mover's entry in the Dashboard: its latest position and its
// last prediction. Its mutex is contended only by a Snapshot.
type Slot struct {
	id      string
	mu      sync.Mutex
	pos     mobility.Report
	hasPos  bool
	pred    []geo.Point // the slot's own buffer, reused
	hasPred bool
}

// Set records a mover's report and, unless pred is empty, its prediction at
// that report. The position is kept only if it is newer than the slot's;
// pred is copied, so the caller may reuse it.
func (s *Slot) Set(r mobility.Report, pred []geo.Point) {
	s.mu.Lock()
	if !s.hasPos || r.Time.After(s.pos.Time) {
		s.pos, s.hasPos = r, true
	}
	if len(pred) > 0 {
		s.setPred(pred)
	}
	s.mu.Unlock()
}

func (s *Slot) setPred(pred []geo.Point) {
	s.pred, s.hasPred = append(s.pred[:0], pred...), true
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
		//lint:ignore boundedchan grows only while shorter than max (the Dashboard's maxKeep), then overwrites
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
	return &Dashboard{slots: make(map[string]*Slot), maxKeep: maxKeep}
}

// Slot returns the mover's slot, adding an empty one on the first call for
// the ID.
func (d *Dashboard) Slot(moverID string) *Slot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.slots[moverID]
	if s == nil {
		s = &Slot{id: moverID}
		d.slots[moverID] = s
	}
	return s
}

// UpdatePosition records a mover's latest position.
func (d *Dashboard) UpdatePosition(r mobility.Report) {
	d.Slot(r.ID).Set(r, nil)
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

// SetPrediction stores a copy of the current future-location prediction of
// a mover.
func (d *Dashboard) SetPrediction(moverID string, points []geo.Point) {
	s := d.Slot(moverID)
	s.mu.Lock()
	s.setPred(points)
	s.mu.Unlock()
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

// Snapshot captures the current picture at the given instant. It reads
// each slot after releasing mu, so a snapshot never holds two locks.
func (d *Dashboard) Snapshot(now time.Time) Snapshot {
	d.mu.RLock()
	s := Snapshot{
		Time:        now,
		Criticals:   d.criticals.list(),
		Links:       d.links.list(),
		Events:      d.events.list(),
		Predictions: make(map[string][]geo.Point, len(d.slots)),
	}
	slots := make([]*Slot, 0, len(d.slots))
	for _, slot := range d.slots {
		slots = append(slots, slot)
	}
	d.mu.RUnlock()
	for _, slot := range slots {
		slot.mu.Lock()
		if slot.hasPos {
			s.Positions = append(s.Positions, slot.pos)
		}
		if slot.hasPred {
			s.Predictions[slot.id] = append([]geo.Point(nil), slot.pred...)
		}
		slot.mu.Unlock()
	}
	sort.Slice(s.Positions, func(i, j int) bool { return s.Positions[i].ID < s.Positions[j].ID })
	return s
}

// MarshalJSON renders the snapshot for the Kafka-backed endpoint.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	return json.Marshal(alias(s))
}
