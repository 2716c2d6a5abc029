package mobility

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"

	"datacron/internal/geo"
)

var t0 = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

func rpt(id string, sec int, lon, lat float64) Report {
	return Report{ID: id, Time: t0.Add(time.Duration(sec) * time.Second),
		Pos: geo.Pt(lon, lat), SpeedKn: 10, Heading: 90}
}

func TestReportValid(t *testing.T) {
	good := rpt("v1", 0, 23.6, 37.9)
	if !good.Valid() {
		t.Error("good report should be valid")
	}
	cases := map[string]Report{
		"empty-id":    {Time: t0, Pos: geo.Pt(0, 0)},
		"zero-time":   {ID: "x", Pos: geo.Pt(0, 0)},
		"bad-lon":     {ID: "x", Time: t0, Pos: geo.Pt(200, 0)},
		"neg-speed":   {ID: "x", Time: t0, Pos: geo.Pt(0, 0), SpeedKn: -1},
		"crazy-speed": {ID: "x", Time: t0, Pos: geo.Pt(0, 0), SpeedKn: 5000},
		"nan-speed":   {ID: "x", Time: t0, Pos: geo.Pt(0, 0), SpeedKn: math.NaN()},
		"nan-heading": {ID: "x", Time: t0, Pos: geo.Pt(0, 0), Heading: math.NaN()},
	}
	// Altitude and vertical rate must be finite too: JSON cannot carry ±Inf
	// or NaN, so one such report used to panic the synopsis encoder.
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		alt, vrate := good, good
		alt.AltFt, vrate.VRateFS = v, v
		cases["alt-"+strconv.FormatFloat(v, 'g', -1, 64)] = alt
		cases["vrate-"+strconv.FormatFloat(v, 'g', -1, 64)] = vrate
	}
	for name, r := range cases {
		if r.Valid() {
			t.Errorf("%s should be invalid", name)
		}
	}
	aloft := good
	aloft.AltFt, aloft.VRateFS = 35_000, -25
	if !aloft.Valid() {
		t.Error("finite altitude and vertical rate should be valid")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := Report{
		ID: "226342000", Time: t0, Pos: geo.Pt(-4.47, 48.38),
		AltFt: 35000, SpeedKn: 420.5, Heading: 187.25, VRateFS: -12.5, Source: "adsb",
	}
	var got Report
	if err := json.Unmarshal(r.Marshal(), &got); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestUnitConversions(t *testing.T) {
	r := Report{SpeedKn: 10, AltFt: 1000}
	if math.Abs(r.SpeedMS()-5.14444) > 1e-9 {
		t.Errorf("SpeedMS = %v", r.SpeedMS())
	}
	if math.Abs(r.AltM()-304.8) > 1e-9 {
		t.Errorf("AltM = %v", r.AltM())
	}
}

func TestTrajectorySortDurationLength(t *testing.T) {
	tr := &Trajectory{ID: "v", Reports: []Report{
		rpt("v", 20, 0.2, 0), rpt("v", 0, 0, 0), rpt("v", 10, 0.1, 0),
	}}
	tr.SortByTime()
	if !tr.Reports[0].Time.Equal(t0) {
		t.Error("sort failed")
	}
	if tr.Duration() != 20*time.Second {
		t.Errorf("duration = %v", tr.Duration())
	}
	wantLen := geo.Haversine(geo.Pt(0, 0), geo.Pt(0.2, 0))
	if math.Abs(tr.Length()-wantLen) > 1 {
		t.Errorf("length = %v, want ≈%v", tr.Length(), wantLen)
	}
	b := tr.Bounds()
	if b.MinLon != 0 || b.MaxLon != 0.2 {
		t.Errorf("bounds = %+v", b)
	}
}

func TestTrajectoryAt(t *testing.T) {
	tr := &Trajectory{ID: "v", Reports: []Report{
		rpt("v", 0, 0, 0), rpt("v", 100, 1, 0),
	}}
	if _, ok := (&Trajectory{}).At(t0); ok {
		t.Error("empty trajectory should report !ok")
	}
	// Before start and after end clamp.
	p, _ := tr.At(t0.Add(-time.Minute))
	if p != geo.Pt(0, 0) {
		t.Errorf("before-start = %v", p)
	}
	p, _ = tr.At(t0.Add(time.Hour))
	if p != geo.Pt(1, 0) {
		t.Errorf("after-end = %v", p)
	}
	// Midpoint.
	p, _ = tr.At(t0.Add(50 * time.Second))
	if math.Abs(p.Lon-0.5) > 1e-6 || math.Abs(p.Lat) > 1e-6 {
		t.Errorf("midpoint = %v", p)
	}
}

func TestGroupByMover(t *testing.T) {
	reports := []Report{
		rpt("a", 10, 1, 1), rpt("b", 0, 2, 2), rpt("a", 0, 0, 0), rpt("b", 5, 2.1, 2),
	}
	groups := GroupByMover(reports)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	a := groups["a"]
	if len(a.Reports) != 2 || !a.Reports[0].Time.Equal(t0) {
		t.Errorf("a not sorted: %+v", a.Reports)
	}
}

func TestEnrichedPoint(t *testing.T) {
	p := NewEnrichedPoint(rpt("v", 0, 0, 0))
	if got := p.Annotation("wind", -1); got != -1 {
		t.Errorf("missing annotation default = %v", got)
	}
	p.Annotations["wind"] = 12.5
	if got := p.Annotation("wind", -1); got != 12.5 {
		t.Errorf("annotation = %v", got)
	}
	if p.HasTag("fishing") {
		t.Error("no tags yet")
	}
	p.Tags = append(p.Tags, "fishing")
	if !p.HasTag("fishing") {
		t.Error("tag should be present")
	}
}

func TestDomainString(t *testing.T) {
	if Maritime.String() != "maritime" || Aviation.String() != "aviation" {
		t.Error("domain names wrong")
	}
	if Domain(9).String() != "Domain(9)" {
		t.Error("unknown domain formatting wrong")
	}
}
