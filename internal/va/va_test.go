package va

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/mobility"
	"datacron/internal/synopses"
)

var t0 = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

func rep(id string, sec int, lon, lat, speed float64) mobility.Report {
	return mobility.Report{ID: id, Time: t0.Add(time.Duration(sec) * time.Second),
		Pos: geo.Pt(lon, lat), SpeedKn: speed, Heading: 90}
}

func TestAssessQualityDetectsPlantedIssues(t *testing.T) {
	cfg := DefaultQualityConfig()
	var reports []mobility.Report
	// A clean track (consistent reported vs derived speed ≈ 10kn).
	pos := geo.Pt(23.0, 37.0)
	for i := 0; i < 30; i++ {
		reports = append(reports, mobility.Report{
			ID: "clean", Time: t0.Add(time.Duration(i) * 10 * time.Second),
			Pos: pos, SpeedKn: 10, Heading: 90,
		})
		pos = geo.Destination(pos, 90, 10*mobility.KnotsToMS*10)
	}
	// A gap.
	reports = append(reports,
		rep("gappy", 0, 24, 37, 0.1), rep("gappy", 600, 24, 37, 0.1))
	// A teleport.
	reports = append(reports,
		rep("jumper", 0, 25, 37, 10), rep("jumper", 10, 25.5, 37, 10))
	// A duplicate timestamp.
	reports = append(reports,
		rep("dup", 0, 26, 37, 0.1), rep("dup", 0, 26, 37, 0.1))
	// An invalid record.
	reports = append(reports, mobility.Report{})

	qr := AssessQuality(reports, cfg)
	if qr.ByType[IssueGap] != 1 {
		t.Errorf("gaps = %d, want 1", qr.ByType[IssueGap])
	}
	if qr.ByType[IssueSpatialOutlier] != 1 {
		t.Errorf("outliers = %d, want 1", qr.ByType[IssueSpatialOutlier])
	}
	if qr.ByType[IssueDuplicateTime] != 1 {
		t.Errorf("dups = %d, want 1", qr.ByType[IssueDuplicateTime])
	}
	if qr.ByType[IssueInvalidRecord] != 1 {
		t.Errorf("invalid = %d, want 1", qr.ByType[IssueInvalidRecord])
	}
	if qr.ByMover["clean"] != 0 {
		t.Errorf("clean track flagged %d times", qr.ByMover["clean"])
	}
	if qr.Records != len(reports) {
		t.Errorf("records = %d", qr.Records)
	}
}

func TestDensity(t *testing.T) {
	d := NewDensity(geo.Rect{MinLon: 0, MinLat: 0, MaxLon: 10, MaxLat: 10}, 10, 10)
	d.Add(geo.Pt(5.5, 5.5))
	d.Add(geo.Pt(5.6, 5.4))
	d.Add(geo.Pt(50, 50)) // outside
	if d.Total != 2 {
		t.Errorf("total = %d", d.Total)
	}
	if d.At(geo.Pt(5.5, 5.5)) != 2 {
		t.Errorf("cell count = %d", d.At(geo.Pt(5.5, 5.5)))
	}
	if d.Max() != 2 {
		t.Errorf("max = %d", d.Max())
	}
}

func TestDensityRender(t *testing.T) {
	d := NewDensity(geo.Rect{MinLon: 0, MinLat: 0, MaxLon: 4, MaxLat: 4}, 4, 4)
	for i := 0; i < 10; i++ {
		d.Add(geo.Pt(0.5, 3.5)) // heavy in the north-west cell
	}
	d.Add(geo.Pt(3.5, 0.5)) // light in the south-east cell
	art := d.Render()
	lines := []rune{}
	for _, line := range splitLines(art) {
		lines = append(lines, []rune(line)...)
	}
	rows := splitLines(art)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// North is up: the heavy cell is in the first row, first column.
	if rows[0][0] != '@' {
		t.Errorf("hot cell = %q, want '@'\n%s", rows[0][0], art)
	}
	// Any traffic is visible: the light cell must not render as blank.
	if rows[3][3] == ' ' {
		t.Errorf("light cell rendered blank\n%s", art)
	}
	// Empty cells blank.
	if rows[1][1] != ' ' {
		t.Errorf("empty cell = %q\n%s", rows[1][1], art)
	}
	_ = lines
	// Empty surface renders without dividing by zero.
	empty := NewDensity(geo.Rect{MinLon: 0, MinLat: 0, MaxLon: 1, MaxLat: 1}, 2, 2)
	if got := empty.Render(); len(got) == 0 {
		t.Error("empty render")
	}
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func TestTimeSeriesAndMask(t *testing.T) {
	var ts []time.Time
	// Events in hours 2 and 5.
	ts = append(ts, t0.Add(2*time.Hour+5*time.Minute), t0.Add(5*time.Hour+30*time.Minute))
	s := NewTimeSeries(ts, t0, t0.Add(8*time.Hour), time.Hour)
	if s.Bins[2] != 1 || s.Bins[5] != 1 || s.Bins[0] != 0 {
		t.Errorf("bins = %v", s.Bins)
	}
	mask := s.MaskWhere("events", func(c int) bool { return c > 0 })
	if !mask.Set.Contains(t0.Add(2*time.Hour + 30*time.Minute)) {
		t.Error("mask should contain hour 2")
	}
	if mask.Set.Contains(t0.Add(3 * time.Hour)) {
		t.Error("mask should not contain hour 3")
	}
}

func TestCoOccurrenceDensity(t *testing.T) {
	extent := geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 28, MaxLat: 41}
	// Events at hour 1; positions in hour 1 cluster east, others west.
	events := []time.Time{t0.Add(time.Hour + 10*time.Minute)}
	series := NewTimeSeries(events, t0, t0.Add(4*time.Hour), time.Hour)
	mask := series.MaskWhere("near-location", func(c int) bool { return c > 0 })
	var reports []mobility.Report
	for i := 0; i < 10; i++ {
		reports = append(reports, rep("v", 3600+i*60, 27.0, 38.0, 10)) // inside mask, east
		reports = append(reports, rep("v", i*60, 23.0, 38.0, 10))      // outside, west
	}
	co := CoOccurrenceDensity(reports, mask, extent, 12, 10)
	if co.Inside.Total != 10 || co.Outside.Total != 10 {
		t.Fatalf("split = %d/%d", co.Inside.Total, co.Outside.Total)
	}
	if co.Inside.At(geo.Pt(27, 38)) == 0 || co.Inside.At(geo.Pt(23, 38)) != 0 {
		t.Error("inside density misplaced")
	}
	if co.InsideShare != 0.5 {
		t.Errorf("inside share = %v", co.InsideShare)
	}
}

func TestClusterByRelevantParts(t *testing.T) {
	// Two groups of tracks that differ ONLY in their final (relevant) part:
	// all share a long common prefix, then approach from north or south.
	var fts []FlaggedTrajectory
	mk := func(id string, approachBrg float64) FlaggedTrajectory {
		tr := &mobility.Trajectory{ID: id}
		pos := geo.Pt(24.0, 38.0)
		for i := 0; i < 20; i++ { // common prefix (irrelevant)
			tr.Reports = append(tr.Reports, mobility.Report{
				ID: id, Time: t0.Add(time.Duration(i) * time.Minute), Pos: pos, SpeedKn: 10,
			})
			pos = geo.Destination(pos, 90, 2_000)
		}
		for i := 0; i < 10; i++ { // approach (relevant)
			pos = geo.Destination(pos, approachBrg, 3_000)
			tr.Reports = append(tr.Reports, mobility.Report{
				ID: id, Time: t0.Add(time.Duration(20+i) * time.Minute), Pos: pos, SpeedKn: 10,
			})
		}
		cut := t0.Add(20 * time.Minute)
		return Flag(tr, func(r mobility.Report) bool { return !r.Time.Before(cut) })
	}
	for i := 0; i < 5; i++ {
		fts = append(fts, mk("north", 0))
	}
	for i := 0; i < 5; i++ {
		fts = append(fts, mk("south", 180))
	}
	labels := ClusterByRelevantParts(fts, 15, 3)
	if labels[0] < 0 || labels[5] < 0 {
		t.Fatalf("labels = %v (noise)", labels)
	}
	if labels[0] == labels[5] {
		t.Errorf("north and south approaches should separate: %v", labels)
	}
	for i := 1; i < 5; i++ {
		if labels[i] != labels[0] || labels[5+i] != labels[5] {
			t.Fatalf("within-group labels differ: %v", labels)
		}
	}
	hist := NewClusterHistogram(fts, labels, t0, t0.Add(time.Hour), 30*time.Minute)
	total := 0
	for _, bins := range hist.Counts {
		for _, c := range bins {
			total += c
		}
	}
	if total != 10 {
		t.Errorf("histogram total = %d, want 10", total)
	}
}

func TestMatchTrajectories(t *testing.T) {
	actual := &mobility.Trajectory{ID: "f"}
	pos := geo.Pt(0, 45)
	for i := 0; i < 20; i++ {
		actual.Reports = append(actual.Reports, mobility.Report{
			ID: "f", Time: t0.Add(time.Duration(i) * 10 * time.Second), Pos: pos,
		})
		pos = geo.Destination(pos, 90, 1_000)
	}
	// Perfect prediction.
	var perfect []mobility.Report
	for i := 5; i < 10; i++ {
		p, _ := actual.At(t0.Add(time.Duration(i) * 10 * time.Second))
		perfect = append(perfect, mobility.Report{ID: "f", Time: t0.Add(time.Duration(i) * 10 * time.Second), Pos: p})
	}
	res := MatchTrajectories(perfect, actual, 100)
	if res.Pairs != 5 || res.MatchedFrac != 1 || res.MeanDistM > 1 {
		t.Errorf("perfect match = %+v", res)
	}
	// Offset prediction: 5km north of track.
	var offset []mobility.Report
	for _, p := range perfect {
		offset = append(offset, mobility.Report{
			ID: "f", Time: p.Time, Pos: geo.Destination(p.Pos, 0, 5_000),
		})
	}
	res2 := MatchTrajectories(offset, actual, 100)
	if res2.MatchedFrac != 0 {
		t.Errorf("offset matched frac = %v", res2.MatchedFrac)
	}
	if res2.MeanDistM < 4_900 || res2.MeanDistM > 5_100 {
		t.Errorf("offset mean dist = %v", res2.MeanDistM)
	}
	// Out-of-span predictions are skipped.
	outside := []mobility.Report{{ID: "f", Time: t0.Add(-time.Hour), Pos: geo.Pt(0, 45)}}
	if r := MatchTrajectories(outside, actual, 100); r.Pairs != 0 {
		t.Errorf("outside pairs = %d", r.Pairs)
	}
	// Outlier ranking and histogram.
	outliers := MatchOutliers([]*MatchResult{res, res2}, 0.5)
	if len(outliers) != 1 || outliers[0] != 1 {
		t.Errorf("outliers = %v", outliers)
	}
	h := MatchedFractionHistogram([]*MatchResult{res, res2})
	if h[9] != 1 || h[0] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestPredictionRun(t *testing.T) {
	pts := []geo.Point{geo.Pt(1, 1), geo.Pt(2, 2)}
	run := PredictionRun("m", pts, t0, 8*time.Second)
	if len(run) != 2 || !run[0].Time.Equal(t0.Add(8*time.Second)) || run[1].Pos != pts[1] {
		t.Errorf("run = %+v", run)
	}
}

func TestDashboardSnapshot(t *testing.T) {
	d := NewDashboard(3)
	d.UpdatePosition(rep("v1", 10, 23, 37, 10))
	d.UpdatePosition(rep("v1", 5, 23.1, 37, 10)) // older: ignored
	d.UpdatePosition(rep("v2", 0, 24, 38, 12))
	d.AddCritical(synopses.CriticalPoint{Report: rep("v1", 10, 23, 37, 10), Type: synopses.ChangeInHeading})
	d.AddLink(linkdisc.Link{Source: "v1", Target: "area-1", Relation: linkdisc.Within, Time: t0})
	d.SetPrediction("v1", []geo.Point{geo.Pt(23.1, 37.1)})
	for i := 0; i < 5; i++ {
		d.AddEventNote("note")
	}
	s := d.Snapshot(t0.Add(time.Minute))
	if len(s.Positions) != 2 || s.Positions[0].ID != "v1" {
		t.Errorf("positions = %v", s.Positions)
	}
	if !s.Positions[0].Time.Equal(t0.Add(10 * time.Second)) {
		t.Error("older position overwrote newer")
	}
	if len(s.Events) != 3 {
		t.Errorf("events kept = %d, want 3 (maxKeep)", len(s.Events))
	}
	if len(s.Criticals) != 1 || len(s.Links) != 1 || len(s.Predictions["v1"]) != 1 {
		t.Error("layers missing")
	}
	// JSON round-trip for the endpoint.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["positions"]; !ok {
		t.Error("snapshot JSON missing positions")
	}
}

func TestQualityOnGeneratedStream(t *testing.T) {
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: 3, GapProb: 0.01, ErrProb: 0.02,
		Counts: map[gen.VesselClass]int{gen.Cargo: 4},
	})
	reports := sim.Run(time.Hour)
	qr := AssessQuality(reports, DefaultQualityConfig())
	if qr.ByType[IssueGap] == 0 {
		t.Error("generated gaps not detected")
	}
	if qr.ByType[IssueSpatialOutlier] == 0 {
		t.Error("injected teleports not detected")
	}
}

// keepLast is the recent lists' original rule: append, then keep the last
// max entries.
func keepLast[T any](list []T, v T, max int) []T {
	list = append(list, v)
	if len(list) > max {
		list = list[len(list)-max:]
	}
	return list
}

// TestDashboardRecentListsMatchAppendAndTrim: the rings behind the recent
// critical points, links and event notes give Snapshot the lists the
// append-and-trim rule gave, in the same order, before the first wrap and
// through several wraparounds — and nil lists while nothing was added.
func TestDashboardRecentListsMatchAppendAndTrim(t *testing.T) {
	const max = 7
	d := NewDashboard(max)
	if s := d.Snapshot(t0); s.Criticals != nil || s.Links != nil || s.Events != nil {
		t.Fatalf("empty dashboard lists %v %v %v, want nil", s.Criticals, s.Links, s.Events)
	}
	var cps []synopses.CriticalPoint
	var links []linkdisc.Link
	var events []string
	for i := 0; i < 5*max+3; i++ {
		cp := synopses.CriticalPoint{Report: rep(fmt.Sprintf("v%d", i%4), i, 23, 37, 10), Type: synopses.ChangeInHeading}
		d.AddCritical(cp)
		cps = keepLast(cps, cp, max)
		if i%2 == 0 {
			l := linkdisc.Link{Source: cp.ID, Target: fmt.Sprintf("area-%d", i), Relation: linkdisc.Within, Time: cp.Time}
			d.AddLink(l)
			links = keepLast(links, l, max)
		}
		note := fmt.Sprintf("note %d", i)
		d.AddEventNote(note)
		events = keepLast(events, note, max)

		s := d.Snapshot(t0)
		if !reflect.DeepEqual(s.Criticals, cps) || !reflect.DeepEqual(s.Links, links) || !reflect.DeepEqual(s.Events, events) {
			t.Fatalf("after %d adds:\ncriticals %v\nwant      %v\nlinks %v\nwant  %v\nevents %v\nwant   %v",
				i+1, s.Criticals, cps, s.Links, links, s.Events, events)
		}
	}
	// A snapshot is a copy: later adds do not reach into it.
	s := d.Snapshot(t0)
	d.AddEventNote("later")
	if !reflect.DeepEqual(s.Events, events) {
		t.Fatalf("snapshot changed under a later add: %v", s.Events)
	}
}
