package va

import (
	"sort"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// MatchResult is the point-matching comparison of a predicted trajectory
// against the actual one (Figure 12): per-point distances at matched times,
// the fraction matched within the threshold, and summary statistics that
// feed the histogram view.
type MatchResult struct {
	Pairs       int // time-aligned point pairs examined
	Matched     int // pairs within the threshold
	MeanDistM   float64
	MaxDistM    float64
	P50M        float64
	P95M        float64
	MatchedFrac float64
	Distances   []float64 // per-pair distances, time order
}

// MatchTrajectories aligns predicted to actual by time (interpolating the
// actual track at each predicted timestamp) and scores distances against
// the threshold. Predicted points outside the actual track's time span are
// skipped.
func MatchTrajectories(predicted []mobility.Report, actual *mobility.Trajectory, thresholdM float64) *MatchResult {
	res := &MatchResult{}
	if actual == nil || len(actual.Reports) == 0 {
		return res
	}
	start := actual.Reports[0].Time
	end := actual.Reports[len(actual.Reports)-1].Time
	for _, p := range predicted {
		if p.Time.Before(start) || p.Time.After(end) {
			continue
		}
		ap, ok := actual.At(p.Time)
		if !ok {
			continue
		}
		d := geo.Haversine(p.Pos, ap)
		res.Pairs++
		//lint:ignore boundedchan offline result: at most one distance per predicted point
		res.Distances = append(res.Distances, d)
		res.MeanDistM += d
		if d > res.MaxDistM {
			res.MaxDistM = d
		}
		if d <= thresholdM {
			res.Matched++
		}
	}
	if res.Pairs > 0 {
		res.MeanDistM /= float64(res.Pairs)
		res.MatchedFrac = float64(res.Matched) / float64(res.Pairs)
		sorted := append([]float64(nil), res.Distances...)
		sort.Float64s(sorted)
		res.P50M = sorted[len(sorted)/2]
		res.P95M = sorted[int(float64(len(sorted))*0.95)]
	}
	return res
}

// MatchOutliers ranks a set of prediction runs by matched fraction and
// returns the indices of runs whose matched fraction falls below the
// cutoff — the "significantly mismatched pairs" the analyst drills into.
func MatchOutliers(results []*MatchResult, cutoff float64) []int {
	var out []int
	for i, r := range results {
		if r.Pairs > 0 && r.MatchedFrac < cutoff {
			out = append(out, i)
		}
	}
	return out
}

// MatchedFractionHistogram bins the matched fractions of many runs into ten
// 0.1-wide buckets — the statistical distribution shown in Figure 12.
func MatchedFractionHistogram(results []*MatchResult) [10]int {
	var h [10]int
	for _, r := range results {
		if r.Pairs == 0 {
			continue
		}
		b := int(r.MatchedFrac * 10)
		if b > 9 {
			b = 9
		}
		h[b]++
	}
	return h
}

// PredictionRun converts a predicted point sequence into reports for
// matching, stamping them at fixed intervals from start.
func PredictionRun(moverID string, points []geo.Point, start time.Time, step time.Duration) []mobility.Report {
	out := make([]mobility.Report, len(points))
	for i, p := range points {
		out[i] = mobility.Report{ID: moverID, Time: start.Add(time.Duration(i+1) * step), Pos: p}
	}
	return out
}
