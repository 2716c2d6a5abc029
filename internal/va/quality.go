// Package va implements the computational backends of the datAcron visual
// analytics component (Section 7): movement-data quality assessment
// following the typology of Andrienko, Andrienko & Fuchs (JLBS 2016),
// time-mask co-occurrence workflows (Figure 10), relevance-aware trajectory
// clustering (Figure 11), point matching of predicted against actual
// trajectories (Figure 12), spatial density surfaces, and the data feed of
// the real-time situation-monitoring dashboard (Figure 13).
//
// These are the data-side halves of the paper's interactive workflows; the
// rendering layer is out of scope, but every summary a view would bind to
// is produced here.
package va

import (
	"math"
	"sort"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// QualityIssueType enumerates the movement-data quality problem typology.
type QualityIssueType string

const (
	IssueGap            QualityIssueType = "temporal_gap"        // missing positions
	IssueIrregular      QualityIssueType = "irregular_sampling"  // high jitter in intervals
	IssueSpatialOutlier QualityIssueType = "spatial_outlier"     // kinematically impossible jump
	IssueDuplicateTime  QualityIssueType = "duplicate_timestamp" // same instant twice
	IssueInvalidRecord  QualityIssueType = "invalid_record"      // structural invalidity
	IssueSpeedMismatch  QualityIssueType = "speed_mismatch"      // reported vs derived speed differ
)

// QualityIssue is one detected problem, anchored to a mover and instant.
type QualityIssue struct {
	Mover string
	Type  QualityIssueType
	Time  time.Time
	Value float64 // magnitude: gap seconds, jump metres, speed delta ...
}

// QualityConfig holds the detection thresholds.
type QualityConfig struct {
	ExpectedInterval time.Duration // nominal sampling period
	GapFactor        float64       // gap when interval > factor × expected
	MaxSpeedMS       float64       // above: spatial outlier
	SpeedTolKn       float64       // reported vs derived speed tolerance
}

// DefaultQualityConfig returns maritime-tuned thresholds.
func DefaultQualityConfig() QualityConfig {
	return QualityConfig{
		ExpectedInterval: 10 * time.Second,
		GapFactor:        6,
		MaxSpeedMS:       55,
		SpeedTolKn:       10,
	}
}

// QualityReport summarises an assessment run.
type QualityReport struct {
	Movers  int
	Records int
	Issues  []QualityIssue
	ByType  map[QualityIssueType]int
	ByMover map[string]int
}

// AssessQuality runs the typology checks over a report batch.
func AssessQuality(reports []mobility.Report, cfg QualityConfig) *QualityReport {
	rep := &QualityReport{
		ByType:  map[QualityIssueType]int{},
		ByMover: map[string]int{},
	}
	add := func(iss QualityIssue) {
		//lint:ignore boundedchan offline result: a bounded number of issues per report of the input batch
		rep.Issues = append(rep.Issues, iss)
		rep.ByType[iss.Type]++
		rep.ByMover[iss.Mover]++
	}
	var valid []mobility.Report
	for _, r := range reports {
		rep.Records++
		if !r.Valid() {
			add(QualityIssue{Mover: r.ID, Type: IssueInvalidRecord, Time: r.Time})
			continue
		}
		valid = append(valid, r)
	}
	byMover := mobility.GroupByMover(valid)
	rep.Movers = len(byMover)
	for id, tr := range byMover {
		var intervals []float64
		for i := 1; i < len(tr.Reports); i++ {
			prev, cur := tr.Reports[i-1], tr.Reports[i]
			dt := cur.Time.Sub(prev.Time)
			if dt <= 0 {
				add(QualityIssue{Mover: id, Type: IssueDuplicateTime, Time: cur.Time})
				continue
			}
			intervals = append(intervals, dt.Seconds())
			if cfg.ExpectedInterval > 0 && dt > time.Duration(cfg.GapFactor*float64(cfg.ExpectedInterval)) {
				add(QualityIssue{Mover: id, Type: IssueGap, Time: prev.Time, Value: dt.Seconds()})
			}
			dist := geo.Haversine(prev.Pos, cur.Pos)
			derived := dist / dt.Seconds()
			if derived > cfg.MaxSpeedMS {
				add(QualityIssue{Mover: id, Type: IssueSpatialOutlier, Time: cur.Time, Value: dist})
			} else if cfg.SpeedTolKn > 0 {
				derivedKn := derived / mobility.KnotsToMS
				meanRepKn := (prev.SpeedKn + cur.SpeedKn) / 2
				if math.Abs(derivedKn-meanRepKn) > cfg.SpeedTolKn {
					add(QualityIssue{Mover: id, Type: IssueSpeedMismatch, Time: cur.Time,
						Value: math.Abs(derivedKn - meanRepKn)})
				}
			}
		}
		// Irregular sampling: coefficient of variation of intervals.
		if len(intervals) >= 5 {
			mean, std := meanStd(intervals)
			if mean > 0 && std/mean > 1.0 {
				add(QualityIssue{Mover: id, Type: IssueIrregular, Time: tr.Reports[0].Time, Value: std / mean})
			}
		}
	}
	sort.Slice(rep.Issues, func(i, j int) bool {
		if !rep.Issues[i].Time.Equal(rep.Issues[j].Time) {
			return rep.Issues[i].Time.Before(rep.Issues[j].Time)
		}
		return rep.Issues[i].Mover < rep.Issues[j].Mover
	})
	return rep
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
