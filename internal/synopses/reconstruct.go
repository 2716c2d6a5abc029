package synopses

import (
	"math"
	"sort"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// Summarize runs the generator over a batch of reports (assumed globally
// time-ordered, as produced by the generators or Drained from the broker)
// and returns all critical points plus the run's statistics.
func Summarize(cfg Config, reports []mobility.Report) ([]CriticalPoint, Stats) {
	g := NewGenerator(cfg)
	var out []CriticalPoint
	for _, r := range reports {
		out = append(out, g.Process(r)...)
	}
	out = append(out, g.Flush()...)
	return out, g.Stats()
}

// Reconstruct rebuilds an approximate trajectory for one mover from its
// critical points by linear (great-circle) interpolation — the
// "approximately reconstructed from judiciously chosen critical points"
// guarantee of Section 4.2.2.
func Reconstruct(moverID string, cps []CriticalPoint) *mobility.Trajectory {
	tr := &mobility.Trajectory{ID: moverID}
	for _, cp := range cps {
		if cp.ID == moverID {
			//lint:ignore boundedchan offline result: at most one report per input critical point
			tr.Reports = append(tr.Reports, cp.Report)
		}
	}
	tr.SortByTime()
	// Deduplicate identical timestamps (multiple critical types can fire on
	// the same report).
	dedup := tr.Reports[:0]
	for i, r := range tr.Reports {
		if i == 0 || !r.Time.Equal(tr.Reports[i-1].Time) {
			dedup = append(dedup, r)
		}
	}
	tr.Reports = dedup
	return tr
}

// ReconstructionError measures the approximation quality of a synopsis: for
// every accepted raw report, the distance between the raw position and the
// synopsis trajectory interpolated at the same instant. It returns the root
// mean square error and the maximum error, in metres.
func ReconstructionError(raw []mobility.Report, cps []CriticalPoint) (rmseM, maxM float64) {
	byMover := mobility.GroupByMover(raw)
	synth := make(map[string]*mobility.Trajectory, len(byMover))
	for id := range byMover {
		synth[id] = Reconstruct(id, cps)
	}
	// Iterate movers in sorted order: float accumulation is not associative,
	// so summing in map order would make the reported error run-dependent.
	ids := make([]string, 0, len(byMover))
	for id := range byMover {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sumSq float64
	var n int
	for _, id := range ids {
		tr := byMover[id]
		s := synth[id]
		if len(s.Reports) == 0 {
			continue
		}
		for _, r := range tr.Reports {
			p, ok := s.At(r.Time)
			if !ok {
				continue
			}
			d := geo.Haversine(r.Pos, p)
			sumSq += d * d
			if d > maxM {
				maxM = d
			}
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Sqrt(sumSq / float64(n)), maxM
}

// ByType buckets critical points per type, for reporting.
func ByType(cps []CriticalPoint) map[CriticalType]int {
	out := make(map[CriticalType]int)
	for _, cp := range cps {
		out[cp.Type]++
	}
	return out
}

// TimeSpan returns the covered interval of a critical-point slice.
func TimeSpan(cps []CriticalPoint) (start, end time.Time) {
	if len(cps) == 0 {
		return
	}
	ts := make([]time.Time, len(cps))
	for i, cp := range cps {
		ts[i] = cp.Time
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	return ts[0], ts[len(ts)-1]
}
