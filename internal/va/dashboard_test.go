package va

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// mapDashboard is the Dashboard's per-mover state as two maps, the way it
// was kept before slots: the oracle the slot tests compare against.
type mapDashboard struct {
	positions   map[string]mobility.Report
	predictions map[string][]geo.Point
}

func (m *mapDashboard) updatePosition(r mobility.Report) {
	if cur, ok := m.positions[r.ID]; !ok || r.Time.After(cur.Time) {
		m.positions[r.ID] = r
	}
}

func (m *mapDashboard) snapshot() ([]mobility.Report, map[string][]geo.Point) {
	var pos []mobility.Report
	for _, r := range m.positions {
		pos = append(pos, r)
	}
	sort.Slice(pos, func(i, j int) bool { return pos[i].ID < pos[j].ID })
	preds := make(map[string][]geo.Point, len(m.predictions))
	for id, pts := range m.predictions {
		preds[id] = append([]geo.Point(nil), pts...)
	}
	return pos, preds
}

// TestSlotsMatchMaps: the legacy calls and Slot.Set give the Snapshot the
// two maps gave, over a random stream that revisits movers with older,
// equal-time and newer reports, and with and without predictions. The
// callers reuse one prediction buffer throughout, so a slot that aliased it
// instead of copying would show the last prediction everywhere.
func TestSlotsMatchMaps(t *testing.T) {
	legacy, slots := NewDashboard(10), NewDashboard(10)
	oracle := &mapDashboard{positions: map[string]mobility.Report{}, predictions: map[string][]geo.Point{}}
	rng := rand.New(rand.NewSource(5))
	var buf []geo.Point
	for i := 0; i < 4000; i++ {
		r := rep(fmt.Sprintf("v%d", rng.Intn(12)), rng.Intn(300), 23+rng.Float64(), 37+rng.Float64(), 10)
		r.Heading = float64(i) // tells equal-time reports apart
		buf = buf[:0]
		if k := rng.Intn(4); k > 0 {
			for j := 0; j < k; j++ {
				buf = append(buf, geo.Pt(float64(i), float64(j)))
			}
		}
		oracle.updatePosition(r)
		legacy.UpdatePosition(r)
		if len(buf) > 0 {
			oracle.predictions[r.ID] = append([]geo.Point(nil), buf...)
			legacy.SetPrediction(r.ID, buf)
		}
		slots.Slot(r.ID).Set(r, buf)
	}
	// SetPrediction with no points still shows the mover with none, as the
	// map entry did; Slot.Set with none keeps the last prediction.
	oracle.predictions["v0"] = nil
	legacy.SetPrediction("v0", nil)
	slots.SetPrediction("v0", nil)
	slots.Slot("v1").Set(rep("v1", -1, 0, 0, 0), nil)
	legacy.UpdatePosition(rep("v1", -1, 0, 0, 0))
	oracle.updatePosition(rep("v1", -1, 0, 0, 0))
	// A prediction with no position, and a slot with neither.
	oracle.predictions["p-only"] = []geo.Point{geo.Pt(1, 2)}
	legacy.SetPrediction("p-only", []geo.Point{geo.Pt(1, 2)})
	slots.SetPrediction("p-only", []geo.Point{geo.Pt(1, 2)})
	slots.Slot("empty")

	wantPos, wantPreds := oracle.snapshot()
	if len(wantPos) != 12 || len(wantPreds) != 13 {
		t.Fatalf("oracle holds %d positions and %d predictions: the stream exercises too little", len(wantPos), len(wantPreds))
	}
	for name, d := range map[string]*Dashboard{"legacy calls": legacy, "Slot.Set": slots} {
		s := d.Snapshot(t0)
		if !reflect.DeepEqual(s.Positions, wantPos) {
			t.Errorf("%s: positions\n%v\nwant\n%v", name, s.Positions, wantPos)
		}
		if !reflect.DeepEqual(s.Predictions, wantPreds) {
			t.Errorf("%s: predictions\n%v\nwant\n%v", name, s.Predictions, wantPreds)
		}
		// A snapshot is a copy: writing into it leaves the slots alone.
		s.Predictions["p-only"][0] = geo.Pt(9, 9)
		if again := d.Snapshot(t0); !reflect.DeepEqual(again.Predictions, wantPreds) {
			t.Errorf("%s: a snapshot aliases a slot's prediction", name)
		}
	}
}

// TestSlotsConcurrentWritersAndSnapshot runs one writer per mover, as the
// shard workers do, against a Snapshot reader; under -race it checks the
// slot locking, and at the end every mover shows its newest report and last
// prediction.
func TestSlotsConcurrentWritersAndSnapshot(t *testing.T) {
	const movers, reports = 8, 2000
	d := NewDashboard(10)
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := d.Snapshot(t0)
			for _, r := range s.Positions {
				if pts := s.Predictions[r.ID]; len(pts) != 2 || pts[0].Lon != pts[1].Lon {
					t.Errorf("torn prediction for %s: %v", r.ID, pts)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for m := 0; m < movers; m++ {
		writers.Add(1)
		go func(id string) {
			defer writers.Done()
			slot := d.Slot(id)
			pred := make([]geo.Point, 2)
			for i := 1; i <= reports; i++ {
				pred[0], pred[1] = geo.Pt(float64(i), 0), geo.Pt(float64(i), 1)
				slot.Set(rep(id, i, 23, 37, 10), pred)
			}
		}(fmt.Sprintf("v%d", m))
	}
	writers.Wait()
	close(done)
	readers.Wait()
	s := d.Snapshot(t0)
	if len(s.Positions) != movers {
		t.Fatalf("%d positions, want %d", len(s.Positions), movers)
	}
	for _, r := range s.Positions {
		if !r.Time.Equal(t0.Add(reports * time.Second)) {
			t.Errorf("%s at %v, want its last report", r.ID, r.Time)
		}
		if pts := s.Predictions[r.ID]; len(pts) != 2 || pts[0].Lon != reports {
			t.Errorf("%s predicted %v, want its last prediction", r.ID, pts)
		}
	}
}
