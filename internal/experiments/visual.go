package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"datacron/internal/core"
	"datacron/internal/flp"
	"datacron/internal/gen"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/synopses"
	"datacron/internal/va"
)

// Fig10Result summarises the time-mask co-occurrence workflow.
type Fig10Result struct {
	MaskIntervals int
	InsideShare   float64
	InsideMax     int
	OutsideMax    int
}

// RunFig10 reproduces the Figure 10 workflow: select the 1-hour intervals
// containing at least one near-location event, then compare trajectory
// densities inside and outside the mask.
func RunFig10(w io.Writer, scale Scale) (*Fig10Result, error) {
	dur := 12 * time.Hour
	if scale == Full {
		dur = 48 * time.Hour
	}
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 101, Region: Region})
	reports := sim.Run(dur)
	// Near-location events from pairwise proximity.
	cfg := linkdisc.Config{Extent: Region, NearDistanceM: 2_000, TemporalWindow: 10 * time.Minute}
	d := linkdisc.NewDiscoverer(cfg, nil)
	var eventTimes []time.Time
	for _, r := range reports {
		for range d.ProcessPoint(r.ID, r.Time, r.Pos) {
			eventTimes = append(eventTimes, r.Time)
		}
	}
	start := gen.DefaultStart
	series := va.NewTimeSeries(eventTimes, start, start.Add(dur), time.Hour)
	mask := series.MaskWhere("near-location", func(c int) bool { return c > 0 })
	co := va.CoOccurrenceDensity(reports, mask, Region, 48, 40)
	res := &Fig10Result{
		MaskIntervals: mask.Set.Len(),
		InsideShare:   co.InsideShare,
		InsideMax:     co.Inside.Max(),
		OutsideMax:    co.Outside.Max(),
	}
	fmt.Fprintf(w, "Figure 10 — time-mask co-occurrence, %s simulated, scale=%s\n", dur, scale)
	fmt.Fprintf(w, "near-location events: %d; mask intervals: %d; positions in mask: %.1f%%\n",
		len(eventTimes), res.MaskIntervals, res.InsideShare*100)
	fmt.Fprintf(w, "density max inside mask: %d, outside: %d\n", res.InsideMax, res.OutsideMax)
	return res, nil
}

// Fig11Result summarises the relevance-aware clustering workflow.
type Fig11Result struct {
	Flights  int
	Clusters int
	Noise    int
}

// RunFig11 reproduces the Figure 11 workflow: cluster flights by the final
// part of their trajectories only (the arrival approach), ignoring cruise
// and departure, and build the per-cluster arrival histogram.
func RunFig11(w io.Writer, scale Scale) (*Fig11Result, error) {
	n := 24
	if scale == Full {
		n = 80
	}
	sim := gen.NewFlightSim(gen.FlightSimConfig{
		Seed: 103, NumFlights: n,
		RoutePairs:      [][2]int{{0, 1}, {4, 1}, {5, 1}}, // all arriving LEMD
		VariantsPerPair: 2,
	})
	plans, reports := sim.Run()
	byID := mobility.GroupByMover(reports)
	var fts []va.FlaggedTrajectory
	for _, p := range plans {
		tr := byID[p.FlightID]
		if tr == nil || len(tr.Reports) < 10 {
			continue
		}
		// Relevance: the final 15 minutes of the flight.
		cut := tr.Reports[len(tr.Reports)-1].Time.Add(-15 * time.Minute)
		fts = append(fts, va.Flag(tr, func(r mobility.Report) bool { return r.Time.After(cut) }))
	}
	labels := va.ClusterByRelevantParts(fts, 30, 3)
	clusters := map[int]bool{}
	noise := 0
	for _, l := range labels {
		if l < 0 {
			noise++
		} else {
			clusters[l] = true
		}
	}
	hist := va.NewClusterHistogram(fts, labels, gen.DefaultStart, gen.DefaultStart.Add(26*time.Hour), time.Hour)
	res := &Fig11Result{Flights: len(fts), Clusters: len(clusters), Noise: noise}
	fmt.Fprintf(w, "Figure 11 — relevance-aware clustering of %d LEMD arrivals, scale=%s\n", len(fts), scale)
	fmt.Fprintf(w, "route clusters found: %d (noise: %d)\n", res.Clusters, res.Noise)
	fmt.Fprintf(w, "arrival histogram bins with traffic: ")
	busy := 0
	for _, bins := range hist.Counts {
		for _, c := range bins {
			if c > 0 {
				busy++
			}
		}
	}
	fmt.Fprintf(w, "%d\n", busy)
	return res, nil
}

// Fig12Result summarises the point-matching workflow.
type Fig12Result struct {
	Runs        int
	MeanMatched float64
	Outliers    int
	Histogram   [10]int
}

// RunFig12 reproduces the Figure 12 workflow: match RMF* predictions
// against actual flight trajectories, build the matched-fraction
// distribution, and surface the significantly mismatched runs.
func RunFig12(w io.Writer, scale Scale) (*Fig12Result, error) {
	n := 8
	if scale == Full {
		n = 30
	}
	sim := gen.NewFlightSim(gen.FlightSimConfig{Seed: 107, NumFlights: n})
	_, reports := sim.Run()
	byID := mobility.GroupByMover(reports)
	var results []*va.MatchResult
	for _, tr := range byID {
		pred := flp.NewRMFStar(8 * time.Second)
		var predicted []mobility.Report
		for i, r := range tr.Reports {
			pred.Observe(r)
			if i >= 10 && i%8 == 0 {
				if pts := pred.Predict(8); pts != nil {
					predicted = append(predicted, va.PredictionRun(tr.ID, pts, r.Time, 8*time.Second)...)
				}
			}
		}
		results = append(results, va.MatchTrajectories(predicted, tr, 1_000))
	}
	res := &Fig12Result{
		Runs:      len(results),
		Histogram: va.MatchedFractionHistogram(results),
	}
	var sum float64
	for _, r := range results {
		sum += r.MatchedFrac
	}
	if len(results) > 0 {
		res.MeanMatched = sum / float64(len(results))
	}
	res.Outliers = len(va.MatchOutliers(results, 0.5))
	fmt.Fprintf(w, "Figure 12 — predicted vs actual point matching, %d flights, scale=%s\n", res.Runs, scale)
	fmt.Fprintf(w, "mean matched fraction (≤1km): %.2f; outlier runs (<0.5 matched): %d\n",
		res.MeanMatched, res.Outliers)
	fmt.Fprintf(w, "matched-fraction histogram (0.0–1.0 in tenths): %v\n", res.Histogram)
	return res, nil
}

// RunDashboard reproduces Figure 13's feed: runs the full real-time
// pipeline on a small maritime scenario and reports the snapshot layers.
func RunDashboard(w io.Writer, scale Scale) (*core.Summary, error) {
	dur := 3 * time.Hour
	if scale == Full {
		dur = 12 * time.Hour
	}
	areas := gen.Areas(109, gen.ProtectedArea, 120, Region, 5_000, 30_000)
	var statics []linkdisc.StaticEntity
	var zones []lowlevel.Region
	for _, a := range areas {
		statics = append(statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
		zones = append(zones, lowlevel.Region{ID: a.ID, Geom: a.Geom})
	}
	// Event forecasting: the heading-reversal motif over critical points,
	// with the symbol model trained on a preliminary run.
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 109, Region: Region})
	reports := sim.Run(dur)
	alphabet := []string{
		string(synopses.TrajectoryStart), string(synopses.TrajectoryEnd),
		string(synopses.StopStart), string(synopses.StopEnd),
		string(synopses.SlowMotionStart), string(synopses.SlowMotionEnd),
		string(synopses.ChangeInHeading), string(synopses.SpeedChange),
		string(synopses.GapStart), string(synopses.GapEnd),
	}
	trainCps, _ := synopses.Summarize(synopses.DefaultMaritime(), reports[:len(reports)/3])
	var trainSyms []string
	for _, cp := range trainCps {
		trainSyms = append(trainSyms, string(cp.Type))
	}
	p, err := newPipeline(core.Config{
		Domain:       mobility.Maritime,
		Link:         linkdisc.Config{Extent: Region, MaskResolution: 8, NearDistanceM: 5_000},
		Statics:      statics,
		Regions:      zones,
		Pattern:      "change_in_heading (speed_change)* change_in_heading",
		Alphabet:     alphabet,
		ModelOrder:   1,
		Theta:        0.4,
		TrainSymbols: trainSyms,
	})
	if err != nil {
		return nil, err
	}
	if err := p.Ingest(context.Background(), reports); err != nil {
		return nil, err
	}
	sum, err := p.RunRealTime(context.Background())
	if err != nil {
		return nil, err
	}
	snap := p.Dashboard.Snapshot(gen.DefaultStart.Add(dur))
	fmt.Fprintf(w, "Figure 13 — real-time dashboard feed after %s, scale=%s\n", dur, scale)
	fmt.Fprintf(w, "pipeline: %s\n", sum)
	fmt.Fprintf(w, "snapshot layers: %d positions, %d criticals, %d links, %d predictions, %d event notes\n",
		len(snap.Positions), len(snap.Criticals), len(snap.Links), len(snap.Predictions), len(snap.Events))
	return &sum, nil
}
