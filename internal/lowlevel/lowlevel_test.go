package lowlevel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

var t0 = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

func TestRunningStatsBasics(t *testing.T) {
	s := NewRunningStats()
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Mean()) || !math.IsNaN(s.Median()) {
		t.Error("empty stats should be NaN")
	}
	for _, v := range []float64{5, 1, 3, 2} {
		s.Observe(v)
	}
	if s.Median() != 2.5 {
		t.Errorf("even median = %v, want 2.5", s.Median())
	}
	s.Observe(4)
	if s.N() != 5 {
		t.Errorf("n = %d", s.N())
	}
	if s.Min() != 1 || s.Max() != 5 || s.Mean() != 3 || s.Median() != 3 {
		t.Errorf("stats = min %v max %v mean %v median %v", s.Min(), s.Max(), s.Mean(), s.Median())
	}
	// From five values on the median is the P² middle marker: a sixth value
	// above the others moves no marker yet.
	s.Observe(6)
	if s.Median() != 3 || s.Max() != 6 || s.Mean() != 3.5 {
		t.Errorf("after 6: median %v max %v mean %v, want 3, 6, 3.5", s.Median(), s.Max(), s.Mean())
	}
	s.Observe(math.NaN()) // ignored
	if s.N() != 6 {
		t.Error("NaN should be ignored")
	}
}

func TestRunningStatsMatchesSort(t *testing.T) {
	// Property: min and max equal the sorted extremes, the median is exact
	// below five values and within them from then on.
	f := func(seed int64, nSeed uint8) bool {
		n := int(nSeed%50) + 1
		r := rand.New(rand.NewSource(seed))
		s := NewRunningStats()
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
			s.Observe(vals[i])
		}
		sort.Float64s(vals)
		want := vals[n/2]
		if n%2 == 0 {
			want = (vals[n/2-1] + vals[n/2]) / 2
		}
		median := s.Median()
		if n < 5 && median != want || median < vals[0] || median > vals[n-1] {
			return false
		}
		return s.Min() == vals[0] && s.Max() == vals[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mkRegions() []Region {
	sq := func(id string, minLon, minLat, maxLon, maxLat float64) Region {
		return Region{ID: id, Geom: geo.MustPolygon([]geo.Point{
			geo.Pt(minLon, minLat), geo.Pt(maxLon, minLat),
			geo.Pt(maxLon, maxLat), geo.Pt(minLon, maxLat),
		})}
	}
	return []Region{
		sq("natura-1", 23.0, 37.0, 24.0, 38.0),
		sq("natura-2", 23.5, 37.5, 24.5, 38.5), // overlaps natura-1
		sq("fishing-1", 26.0, 36.0, 27.0, 37.0),
	}
}

func rep(id string, sec int, lon, lat float64) mobility.Report {
	return mobility.Report{ID: id, Time: t0.Add(time.Duration(sec) * time.Second),
		Pos: geo.Pt(lon, lat), SpeedKn: 10, Heading: 90}
}

func TestAreaMonitorEntryExit(t *testing.T) {
	m := NewAreaMonitor(mkRegions(), 32)
	// Outside everything.
	if evs := m.Update(rep("v1", 0, 20, 35)); len(evs) != 0 {
		t.Errorf("no events expected, got %v", evs)
	}
	// Enter natura-1 only.
	evs := m.Update(rep("v1", 10, 23.2, 37.2))
	if len(evs) != 1 || evs[0].Type != Entry || evs[0].AreaID != "natura-1" {
		t.Fatalf("events = %v", evs)
	}
	// Move into the overlap zone: enter natura-2, stay in natura-1.
	evs = m.Update(rep("v1", 20, 23.7, 37.7))
	if len(evs) != 1 || evs[0].AreaID != "natura-2" || evs[0].Type != Entry {
		t.Fatalf("overlap events = %v", evs)
	}
	if got := m.Inside("v1"); len(got) != 2 {
		t.Errorf("inside = %v", got)
	}
	// Leave both.
	evs = m.Update(rep("v1", 30, 20, 35))
	if len(evs) != 2 || evs[0].Type != Exit || evs[1].Type != Exit {
		t.Fatalf("exit events = %v", evs)
	}
	if got := m.Inside("v1"); len(got) != 0 {
		t.Errorf("should be inside nothing: %v", got)
	}
}

func TestAreaMonitorIndependentMovers(t *testing.T) {
	m := NewAreaMonitor(mkRegions(), 32)
	m.Update(rep("v1", 0, 23.2, 37.2))
	m.Update(rep("v2", 0, 26.5, 36.5))
	if got := m.Inside("v1"); len(got) != 1 || got[0] != "natura-1" {
		t.Errorf("v1 inside = %v", got)
	}
	if got := m.Inside("v2"); len(got) != 1 || got[0] != "fishing-1" {
		t.Errorf("v2 inside = %v", got)
	}
}

func TestAreaMonitorEmptyRegions(t *testing.T) {
	m := NewAreaMonitor(nil, 32)
	if evs := m.Update(rep("v1", 0, 23, 37)); evs != nil {
		t.Errorf("no regions: events = %v", evs)
	}
}

func TestAreaMonitorGridConsistency(t *testing.T) {
	// Property: the grid-accelerated result matches brute force.
	regions := mkRegions()
	m := NewAreaMonitor(regions, 16)
	f := func(lonSeed, latSeed float64) bool {
		p := geo.Pt(20+math.Mod(math.Abs(lonSeed), 8), 35+math.Mod(math.Abs(latSeed), 4))
		var got Regions
		m.Step(&got, p)
		for ri, rg := range regions {
			want := rg.Geom.Contains(p)
			if got.has(ri) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTrajectoryProfile(t *testing.T) {
	p := NewTrajectoryProfile("v1")
	// Speed ramps 10 → 20 knots over 10 steps of 10s.
	for i := 0; i <= 10; i++ {
		r := rep("v1", i*10, 23.0+float64(i)*0.01, 37.0)
		r.SpeedKn = 10 + float64(i)
		p.Observe(r)
	}
	if p.Speed.Min() != 10 || p.Speed.Max() != 20 {
		t.Errorf("speed range [%v, %v]", p.Speed.Min(), p.Speed.Max())
	}
	// Acceleration: 1 knot per 10s = 0.0514 m/s².
	wantAccel := 1 * mobility.KnotsToMS / 10
	if math.Abs(p.Accel.Mean()-wantAccel) > 1e-9 {
		t.Errorf("accel mean = %v, want %v", p.Accel.Mean(), wantAccel)
	}
	if p.Accel.N() != 10 {
		t.Errorf("accel n = %d, want 10", p.Accel.N())
	}
}

func TestProfiler(t *testing.T) {
	pf := NewProfiler()
	pf.Observe(rep("b", 0, 23, 37))
	pf.Observe(rep("a", 0, 23, 37))
	pf.Observe(rep("a", 10, 23.01, 37))
	ids := pf.MoverIDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("mover ids = %v", ids)
	}
	if pf.Profile("a").Speed.N() != 2 {
		t.Error("a should have 2 speed samples")
	}
	if pf.Profile("zz") != nil {
		t.Error("unknown mover should be nil")
	}
}
