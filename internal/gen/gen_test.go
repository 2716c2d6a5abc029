package gen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

func TestWeatherFieldDeterministicAndSmooth(t *testing.T) {
	w1 := NewWeatherField(42, DefaultStart)
	w2 := NewWeatherField(42, DefaultStart)
	p := geo.Pt(24, 38)
	ts := DefaultStart.Add(3 * time.Hour)
	u1, v1 := w1.Wind(p, ts)
	u2, v2 := w2.Wind(p, ts)
	if u1 != u2 || v1 != v2 {
		t.Error("same seed should give identical wind")
	}
	w3 := NewWeatherField(43, DefaultStart)
	u3, _ := w3.Wind(p, ts)
	if u1 == u3 {
		t.Error("different seeds should differ")
	}
	// Smoothness: nearby points have similar wind.
	u4, v4 := w1.Wind(geo.Pt(24.01, 38.01), ts)
	if math.Hypot(u4-u1, v4-v1) > 1.0 {
		t.Errorf("wind field not smooth: Δ=%.2f", math.Hypot(u4-u1, v4-v1))
	}
	// Magnitudes plausible.
	if ws := w1.WindSpeed(p, ts); ws < 0 || ws > 60 {
		t.Errorf("wind speed implausible: %v", ws)
	}
	if temp := w1.Temperature(p, ts); temp < -30 || temp > 50 {
		t.Errorf("temperature implausible: %v", temp)
	}
	if wh := w1.WaveHeight(p, ts); wh < 0 || wh > 12 {
		t.Errorf("wave height implausible: %v", wh)
	}
}

// refWind is the wind field as first written: each component recomputes
// the hour offset and the cosine and sine of its direction.
func refWind(w *WeatherField, p geo.Point, t time.Time) (u, v float64) {
	for _, c := range w.comps {
		hours := t.Sub(w.start).Hours()
		s := math.Sin(2*math.Pi*(c.kLon*p.Lon+c.kLat*p.Lat+c.omega*hours) + c.phase)
		u += c.ampWind * s * math.Cos(c.dir)
		v += c.ampWind * s * math.Sin(c.dir)
	}
	return u, v
}

func refTemperature(w *WeatherField, p geo.Point, t time.Time) float64 {
	base := 25 - 0.5*math.Abs(p.Lat)
	diurnal := 4 * math.Sin(2*math.Pi*float64(t.Hour())/24)
	noise := 0.0
	for _, c := range w.comps {
		hours := t.Sub(w.start).Hours()
		noise += c.ampTemp * math.Sin(2*math.Pi*(c.kLon*p.Lon+c.kLat*p.Lat+c.omega*hours)+c.phase+1.3)
	}
	return base + diurnal + noise/3
}

// TestWeatherFieldMatchesReferenceFormulas: the precomputed directions, the
// one hour offset per call and WindAndWave's single evaluation change no
// bit of any reading, at random points and times (before and after the
// field's anchor) over several seeds.
func TestWeatherFieldMatchesReferenceFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(1); seed <= 4; seed++ {
		w := NewWeatherField(seed, DefaultStart)
		for i := 0; i < 500; i++ {
			p := geo.Pt(-180+360*rng.Float64(), -90+180*rng.Float64())
			ts := DefaultStart.Add(time.Duration(rng.Int63n(int64(2000*time.Hour))) - 100*time.Hour)
			u, v := refWind(w, p, ts)
			ws := math.Hypot(u, v)
			wave := clampF(0.2+ws*ws/60, 0, 12)
			gotU, gotV := w.Wind(p, ts)
			gotWind, gotWave := w.WindAndWave(p, ts)
			checks := []struct {
				name      string
				got, want float64
			}{
				{"Wind u", gotU, u},
				{"Wind v", gotV, v},
				{"WindSpeed", w.WindSpeed(p, ts), ws},
				{"WaveHeight", w.WaveHeight(p, ts), wave},
				{"WindAndWave wind", gotWind, ws},
				{"WindAndWave wave", gotWave, wave},
				{"Temperature", w.Temperature(p, ts), refTemperature(w, p, ts)},
			}
			for _, c := range checks {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("seed %d, %v at %v: %s = %v, reference %v", seed, p, ts, c.name, c.got, c.want)
				}
			}
		}
	}
}

func TestWeatherSampleGrid(t *testing.T) {
	w := NewWeatherField(1, DefaultStart)
	obs := w.Sample(AegeanRegion, 4, DefaultStart, 6*time.Hour, 3*time.Hour)
	if len(obs) != 2*16 {
		t.Fatalf("observations = %d, want 32", len(obs))
	}
	for _, o := range obs {
		if !AegeanRegion.Contains(o.Pos) {
			t.Errorf("sample outside region: %v", o.Pos)
		}
	}
}

func TestAreasGeneration(t *testing.T) {
	areas := Areas(7, ProtectedArea, 50, AegeanRegion, 2_000, 20_000)
	if len(areas) != 50 {
		t.Fatalf("areas = %d", len(areas))
	}
	seen := map[string]bool{}
	for _, a := range areas {
		if seen[a.ID] {
			t.Errorf("duplicate area ID %s", a.ID)
		}
		seen[a.ID] = true
		if a.Geom == nil || len(a.Geom.Ring()) < 5 {
			t.Errorf("area %s has too few vertices", a.ID)
		}
		c := a.Geom.Centroid()
		if !AegeanRegion.Buffer(30_000).Contains(c) {
			t.Errorf("area %s centroid far outside region: %v", a.ID, c)
		}
	}
	// Determinism.
	again := Areas(7, ProtectedArea, 50, AegeanRegion, 2_000, 20_000)
	if again[13].Geom.WKT() != areas[13].Geom.WKT() {
		t.Error("area generation not deterministic")
	}
}

func TestPortsGeneration(t *testing.T) {
	ports := Ports(3, 100, AegeanRegion)
	if len(ports) != 100 {
		t.Fatal("port count")
	}
	for _, p := range ports {
		if !AegeanRegion.Contains(p.Pos) {
			t.Errorf("port %s outside region", p.ID)
		}
		if p.Country == "" {
			t.Errorf("port %s has no country", p.ID)
		}
	}
}

func TestVesselSimBasics(t *testing.T) {
	sim := NewVesselSim(VesselSimConfig{Seed: 11})
	reg := sim.Registry()
	if len(reg) != 16 { // default counts: 6+3+2+5
		t.Fatalf("registry size = %d, want 16", len(reg))
	}
	reports := sim.Run(30 * time.Minute)
	if len(reports) == 0 {
		t.Fatal("no reports generated")
	}
	// Time-ordered.
	for i := 1; i < len(reports); i++ {
		if reports[i].Time.Before(reports[i-1].Time) {
			t.Fatalf("reports not time-ordered at %d", i)
		}
	}
	// All movers present and all reports structurally valid (noise aside,
	// erroneous records are only injected when ErrProb > 0).
	byID := mobility.GroupByMover(reports)
	if len(byID) < 12 {
		t.Errorf("only %d movers reported", len(byID))
	}
	for id, tr := range byID {
		for _, r := range tr.Reports {
			if !r.Valid() {
				t.Errorf("invalid report from %s: %+v", id, r)
			}
		}
	}
}

func TestVesselSimDeterminism(t *testing.T) {
	a := NewVesselSim(VesselSimConfig{Seed: 5}).Run(10 * time.Minute)
	b := NewVesselSim(VesselSimConfig{Seed: 5}).Run(10 * time.Minute)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestVesselSimGaps(t *testing.T) {
	cfg := VesselSimConfig{
		Seed:        2,
		Counts:      map[VesselClass]int{Cargo: 4},
		GapProb:     0.02,
		GapDuration: 10 * time.Minute,
	}
	withGaps := NewVesselSim(cfg).Run(2 * time.Hour)
	cfg.GapProb = 0
	noGaps := NewVesselSim(cfg).Run(2 * time.Hour)
	if len(withGaps) >= len(noGaps) {
		t.Errorf("gaps should reduce report count: %d vs %d", len(withGaps), len(noGaps))
	}
	// Verify an actual long gap exists for some mover.
	foundGap := false
	for _, tr := range mobility.GroupByMover(withGaps) {
		for i := 1; i < len(tr.Reports); i++ {
			if tr.Reports[i].Time.Sub(tr.Reports[i-1].Time) > 5*time.Minute {
				foundGap = true
			}
		}
	}
	if !foundGap {
		t.Error("no communication gap found in stream")
	}
}

func TestVesselSimErrorInjection(t *testing.T) {
	cfg := VesselSimConfig{
		Seed:    9,
		Counts:  map[VesselClass]int{Cargo: 3},
		ErrProb: 0.05,
	}
	reports := NewVesselSim(cfg).Run(time.Hour)
	bad := 0
	for _, tr := range mobility.GroupByMover(reports) {
		for i := 1; i < len(tr.Reports); i++ {
			d := geo.Haversine(tr.Reports[i-1].Pos, tr.Reports[i].Pos)
			dt := tr.Reports[i].Time.Sub(tr.Reports[i-1].Time).Seconds()
			if dt > 0 && d/dt > 60 { // implied speed > 60 m/s for a vessel
				bad++
			}
		}
		for _, r := range tr.Reports {
			if r.SpeedKn > 100 {
				bad++
			}
		}
	}
	if bad == 0 {
		t.Error("error injection produced no detectable outliers")
	}
}

func TestFishingVesselManoeuvres(t *testing.T) {
	cfg := VesselSimConfig{
		Seed:   4,
		Counts: map[VesselClass]int{Fishing: 3},
	}
	reports := NewVesselSim(cfg).Run(6 * time.Hour)
	// Fishing vessels should show both slow speeds and large heading swings.
	slow, bigTurns := 0, 0
	for _, tr := range mobility.GroupByMover(reports) {
		for i := 1; i < len(tr.Reports); i++ {
			if tr.Reports[i].SpeedKn < 5 {
				slow++
			}
			if math.Abs(geo.AngleDiff(tr.Reports[i-1].Heading, tr.Reports[i].Heading)) > 20 {
				bigTurns++
			}
		}
	}
	if slow < 50 {
		t.Errorf("expected many slow reports, got %d", slow)
	}
	if bigTurns < 10 {
		t.Errorf("expected heading swings, got %d", bigTurns)
	}
}

func TestFlightSimPlansAndTrajectories(t *testing.T) {
	sim := NewFlightSim(FlightSimConfig{Seed: 21, NumFlights: 6})
	plans, reports := sim.Run()
	if len(plans) != 6 {
		t.Fatalf("plans = %d", len(plans))
	}
	byID := mobility.GroupByMover(reports)
	for _, plan := range plans {
		tr, ok := byID[plan.FlightID]
		if !ok {
			t.Fatalf("no reports for %s", plan.FlightID)
		}
		first, last := tr.Reports[0], tr.Reports[len(tr.Reports)-1]
		// Starts near departure, ends near arrival.
		var depPos, arrPos geo.Point
		for _, ap := range StandardAirports() {
			if ap.ID == plan.Departure {
				depPos = ap.Pos
			}
			if ap.ID == plan.Arrival {
				arrPos = ap.Pos
			}
		}
		if d := geo.Haversine(first.Pos, depPos); d > 10_000 {
			t.Errorf("%s starts %.0fm from departure", plan.FlightID, d)
		}
		if d := geo.Haversine(last.Pos, arrPos); d > 25_000 {
			t.Errorf("%s ends %.0fm from arrival", plan.FlightID, d)
		}
		// Climbs to near cruise altitude.
		maxAlt := 0.0
		for _, r := range tr.Reports {
			if r.AltFt > maxAlt {
				maxAlt = r.AltFt
			}
		}
		if maxAlt < plan.CruiseFL*100*0.9 {
			t.Errorf("%s peaked at %.0fft, cruise %.0fft", plan.FlightID, maxAlt, plan.CruiseFL*100)
		}
		// Ends low.
		if last.AltFt > 6_000 {
			t.Errorf("%s ends at altitude %.0fft", plan.FlightID, last.AltFt)
		}
	}
}

func TestFlightSimVariantsAreDistinct(t *testing.T) {
	sim := NewFlightSim(FlightSimConfig{Seed: 8, NumFlights: 30, VariantsPerPair: 3})
	plans, reports := sim.Run()
	byID := mobility.GroupByMover(reports)
	// Group flights by variant; mid-route positions of different variants
	// of the same pair should separate more than within a variant.
	type mid struct {
		route string
		pos   geo.Point
	}
	var mids []mid
	for _, p := range plans {
		tr := byID[p.FlightID]
		if tr == nil || len(tr.Reports) == 0 {
			continue
		}
		mids = append(mids, mid{p.Route, tr.Reports[len(tr.Reports)/2].Pos})
	}
	var within, between []float64
	for i := 0; i < len(mids); i++ {
		for j := i + 1; j < len(mids); j++ {
			// Compare only flights of the same airport pair.
			if mids[i].route[:9] != mids[j].route[:9] {
				continue
			}
			d := geo.Haversine(mids[i].pos, mids[j].pos)
			if mids[i].route == mids[j].route {
				within = append(within, d)
			} else {
				between = append(between, d)
			}
		}
	}
	if len(within) == 0 || len(between) == 0 {
		t.Skip("not enough pairs to compare")
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(between) < avg(within) {
		t.Errorf("route variants not separated: within=%.0f between=%.0f", avg(within), avg(between))
	}
}

func TestFlightSimWeatherDrivenDeviations(t *testing.T) {
	w := NewWeatherField(3, DefaultStart)
	simW := NewFlightSim(FlightSimConfig{Seed: 10, NumFlights: 4, Weather: w})
	plansW, _ := simW.Run()
	simN := NewFlightSim(FlightSimConfig{Seed: 10, NumFlights: 4})
	plansN, _ := simN.Run()
	// Same seed, same plans; deviations differ only through weather, which
	// is verified indirectly via actualWaypoints in the flying code. Here we
	// just check plans themselves are identical (weather affects actuals).
	for i := range plansW {
		if plansW[i].Route != plansN[i].Route {
			t.Error("plans should not depend on weather")
		}
	}
}

func TestMarkovSourceDeterminismAndDistribution(t *testing.T) {
	syms := []string{"a", "b", "c"}
	m1 := NewMarkovSource(5, syms, 2, 0.8)
	m2 := NewMarkovSource(5, syms, 2, 0.8)
	s1, s2 := m1.Generate(100), m2.Generate(100)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("markov source not deterministic")
		}
	}
	// Empirical conditional distribution approximates the planted one.
	m := NewMarkovSource(5, syms, 1, 0.8)
	seq := m.Generate(200_000)
	counts := map[string]map[string]int{}
	for i := 1; i < len(seq); i++ {
		c := seq[i-1]
		if counts[c] == nil {
			counts[c] = map[string]int{}
		}
		counts[c][seq[i]]++
	}
	for _, ctx := range syms {
		tot := 0
		for _, n := range counts[ctx] {
			tot += n
		}
		if tot < 1000 {
			continue
		}
		for _, nxt := range syms {
			want, err := m.ConditionalProb([]string{ctx}, nxt)
			if err != nil {
				t.Fatal(err)
			}
			got := float64(counts[ctx][nxt]) / float64(tot)
			if math.Abs(got-want) > 0.02 {
				t.Errorf("P(%s|%s): empirical %.3f vs planted %.3f", nxt, ctx, got, want)
			}
		}
	}
}

func TestMarkovSourceHigherOrderStructure(t *testing.T) {
	// An order-2 source should have context-dependent conditionals that an
	// order-1 summary cannot capture: verify that P(x|ab) differs from
	// P(x|bb) for some x — i.e. genuine second-order structure.
	syms := []string{"a", "b"}
	m := NewMarkovSource(9, syms, 2, 0.9)
	p1, err1 := m.ConditionalProb([]string{"a", "b"}, "a")
	p2, err2 := m.ConditionalProb([]string{"b", "b"}, "a")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(p1-p2) < 0.05 {
		t.Errorf("order-2 structure too weak: %.3f vs %.3f", p1, p2)
	}
}

func TestMarkovSourceErrors(t *testing.T) {
	m := NewMarkovSource(1, []string{"a", "b"}, 1, 0.5)
	if _, err := m.ConditionalProb([]string{"a", "b"}, "a"); err == nil {
		t.Error("wrong context length should fail")
	}
	if _, err := m.ConditionalProb([]string{"z"}, "a"); err == nil {
		t.Error("unknown context should fail")
	}
	if _, err := m.ConditionalProb([]string{"a"}, "z"); err == nil {
		t.Error("unknown symbol should fail")
	}
}

// TestSortReportsKeepsSortSliceStableOrder pins that sortReports orders a
// generated fleet exactly as the reflection-based sort.SliceStable it
// replaced: same keys, and reports equal in both keep their input order.
func TestSortReportsKeepsSortSliceStableOrder(t *testing.T) {
	reports := NewVesselSim(VesselSimConfig{Seed: 5}).Run(2 * time.Hour)
	// Per-vessel generation order, as Run hands it to the sort, plus
	// same-time same-ID duplicates that only stability keeps apart.
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	for i := 0; i < len(reports); i += 7 {
		dup := reports[i]
		dup.Source = "dup"
		reports = append(reports, dup)
	}
	want := append([]mobility.Report(nil), reports...)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		return a.ID < b.ID
	})
	sortReports(reports)
	for i := range want {
		if reports[i] != want[i] {
			t.Fatalf("order differs at %d: got %+v, want %+v", i, reports[i], want[i])
		}
	}
}

// sortedRun is VesselSim.Run as it was first written, kept as its oracle:
// every vessel's reports generated in turn, then one stable sort.
func sortedRun(s *VesselSim, dur time.Duration) []mobility.Report {
	var out []mobility.Report
	interval := s.cfg.ReportInterval
	for _, st := range s.vessels {
		offset := time.Duration(st.r.Int63n(int64(interval)))
		for elapsed := offset; elapsed < dur; elapsed += interval {
			if s.step(st, interval) {
				out = append(out, s.emit(st, s.cfg.Start.Add(elapsed)))
			}
		}
	}
	sortReports(out)
	return out
}

// TestVesselRunMatchesSortedRun: stepping the fleet round by round yields
// the slice the per-vessel loop and its stable sort yield, report for
// report, over successive Runs of the same simulation — for the default
// fleet at two seeds, with and without erroneous records, and for the two
// benchmark fleets.
func TestVesselRunMatchesSortedRun(t *testing.T) {
	per := 75
	cases := []struct {
		name       string
		cfg        VesselSimConfig
		first, run time.Duration
	}{
		{"default/seed1", VesselSimConfig{Seed: 1}, 2 * time.Hour, 45 * time.Minute},
		{"default/seed7", VesselSimConfig{Seed: 7}, 2 * time.Hour, 45 * time.Minute},
		{"errors/seed7", VesselSimConfig{Seed: 7, ErrProb: 0.05, GapProb: 0.01}, 2 * time.Hour, 45 * time.Minute},
		{"transit-fleet", VesselSimConfig{Seed: 1, Region: AegeanRegion, GapProb: 0.005,
			Counts: map[VesselClass]int{Cargo: per, Tanker: per, Ferry: per, Fishing: per}}, 4 * time.Hour, 30 * time.Minute},
		{"manoeuvre-fleet", VesselSimConfig{Seed: 7, Region: AegeanRegion, GapProb: 0.005,
			Counts: map[VesselClass]int{Fishing: 300}}, 36 * time.Minute, 36 * time.Minute},
		{"odd-interval", VesselSimConfig{Seed: 3, ReportInterval: 7 * time.Second, ErrProb: 0.02}, 55*time.Minute + 3*time.Second, time.Hour},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := NewVesselSim(c.cfg), NewVesselSim(c.cfg)
			for i, dur := range []time.Duration{c.first, c.run} {
				g, w := got.Run(dur), sortedRun(want, dur)
				if len(g) != len(w) {
					t.Fatalf("run %d: %d reports, want %d", i, len(g), len(w))
				}
				for j := range w {
					if g[j] != w[j] {
						t.Fatalf("run %d: report %d = %+v, want %+v", i, j, g[j], w[j])
					}
				}
			}
		})
	}
}
