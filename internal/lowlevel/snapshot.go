package lowlevel

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"datacron/internal/mobility"
)

// runningStatsSnapshot is the wire form of RunningStats. Min/Max are pointers
// so the ±Inf sentinels of an empty accumulator (not representable in JSON)
// can be omitted and re-seeded on restore. Lo/Hi are the heap slices verbatim:
// the heap invariant is positional, so copying the backing arrays preserves it.
type runningStatsSnapshot struct {
	N   int64     `json:"n"`
	Sum float64   `json:"sum"`
	Min *float64  `json:"min,omitempty"`
	Max *float64  `json:"max,omitempty"`
	Lo  []float64 `json:"lo,omitempty"`
	Hi  []float64 `json:"hi,omitempty"`
}

func snapshotStats(s *RunningStats) runningStatsSnapshot {
	snap := runningStatsSnapshot{N: s.n, Sum: s.sum, Lo: s.lo, Hi: s.hi}
	if s.n > 0 {
		mn, mx := s.min, s.max
		snap.Min, snap.Max = &mn, &mx
	}
	return snap
}

// restoreStats rebuilds an accumulator from its wire form, or reports what
// makes the blob one that Observe could not have produced: a NaN sum, a count
// that is not the two heaps' sizes, heaps out of balance or out of order, or
// a low half reaching above the high half. Median indexes the heaps on the
// strength of these invariants.
func restoreStats(snap runningStatsSnapshot) (*RunningStats, error) {
	switch {
	case math.IsNaN(snap.Sum):
		return nil, errors.New("NaN sum")
	case snap.N != int64(len(snap.Lo)+len(snap.Hi)):
		return nil, errors.New("count differs from the median heaps' sizes")
	case len(snap.Lo) != len(snap.Hi) && len(snap.Lo) != len(snap.Hi)+1:
		return nil, errors.New("unbalanced median heaps")
	case !isHeap(snap.Lo, true) || !isHeap(snap.Hi, false):
		return nil, errors.New("median heap out of order")
	case len(snap.Hi) > 0 && snap.Lo[0] > snap.Hi[0]:
		return nil, errors.New("median heaps overlap")
	}
	s := NewRunningStats()
	s.n = snap.N
	s.sum = snap.Sum
	if snap.Min != nil {
		s.min = *snap.Min
	}
	if snap.Max != nil {
		s.max = *snap.Max
	}
	s.lo = snap.Lo
	s.hi = snap.Hi
	return s, nil
}

// profileSnapshot is the wire form of TrajectoryProfile.
type profileSnapshot struct {
	MoverID string               `json:"id"`
	Speed   runningStatsSnapshot `json:"speed"`
	Accel   runningStatsSnapshot `json:"accel"`
	Last    mobility.Report      `json:"last"`
	HasLast bool                 `json:"hasLast,omitempty"`
}

// Snapshot serializes every mover's profile (checkpoint.Snapshotter).
func (pf *Profiler) Snapshot() ([]byte, error) {
	out := make(map[string]profileSnapshot, len(pf.profiles))
	for id, p := range pf.profiles {
		out[id] = profileSnapshot{
			MoverID: p.MoverID,
			Speed:   snapshotStats(p.Speed),
			Accel:   snapshotStats(p.Accel),
			Last:    p.last,
			HasLast: p.hasLast,
		}
	}
	return json.Marshal(out)
}

// Restore replaces the profiler's state with a snapshot taken by Snapshot.
// On error the profiler is left as it was.
func (pf *Profiler) Restore(data []byte) error {
	var snaps map[string]profileSnapshot
	if err := json.Unmarshal(data, &snaps); err != nil {
		return fmt.Errorf("lowlevel: restore profiler: %w", err)
	}
	profiles := make(map[string]*TrajectoryProfile, len(snaps))
	for id, ps := range snaps {
		speed, err := restoreStats(ps.Speed)
		if err != nil {
			return errBadStats(id, "speed", err)
		}
		accel, err := restoreStats(ps.Accel)
		if err != nil {
			return errBadStats(id, "acceleration", err)
		}
		profiles[id] = &TrajectoryProfile{
			MoverID: ps.MoverID,
			Speed:   speed,
			Accel:   accel,
			last:    ps.Last,
			hasLast: ps.HasLast,
		}
	}
	pf.profiles = profiles
	return nil
}

func errBadStats(id, attr string, err error) error {
	return fmt.Errorf("lowlevel: restore profiler: %s statistics of %s: %w", attr, id, err)
}

// Snapshot serializes the monitor's inside-sets (checkpoint.Snapshotter).
// The region index and grid are functions of the configured regions, rebuilt
// identically on restart, so only the dynamic membership is captured. Region
// indices are stored sorted for deterministic encoding.
func (m *AreaMonitor) Snapshot() ([]byte, error) {
	out := make(map[string][]int, len(m.inside))
	for id, set := range m.inside {
		ris := make([]int, 0, len(set))
		for ri := range set {
			ris = append(ris, ri)
		}
		sort.Ints(ris)
		out[id] = ris
	}
	return json.Marshal(out)
}

// Restore replaces the monitor's inside-sets with a snapshot taken by
// Snapshot against a monitor built over the same regions.
func (m *AreaMonitor) Restore(data []byte) error {
	var snaps map[string][]int
	if err := json.Unmarshal(data, &snaps); err != nil {
		return fmt.Errorf("lowlevel: restore area monitor: %w", err)
	}
	inside := make(map[string]map[int]bool, len(snaps))
	for id, ris := range snaps {
		set := make(map[int]bool, len(ris))
		for _, ri := range ris {
			if ri < 0 || ri >= len(m.regions) {
				return errRegionIndex(ri, len(m.regions))
			}
			set[ri] = true
		}
		if len(set) > 0 {
			inside[id] = set
		}
	}
	m.inside = inside
	return nil
}

func errRegionIndex(ri, regions int) error {
	return fmt.Errorf("lowlevel: restore area monitor: region index %d out of range for %d regions", ri, regions)
}
