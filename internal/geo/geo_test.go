package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		want float64 // metres
		tol  float64
	}{
		{"zero", Pt(2.0, 41.0), Pt(2.0, 41.0), 0, 1e-6},
		{"one-degree-lat", Pt(0, 0), Pt(0, 1), 111_195, 50},
		{"one-degree-lon-at-equator", Pt(0, 0), Pt(1, 0), 111_195, 50},
		{"barcelona-madrid", Pt(2.0785, 41.2974), Pt(-3.5676, 40.4722), 483_000, 5_000},
		{"piraeus-heraklion", Pt(23.6470, 37.9420), Pt(25.1442, 35.3387), 319_000, 8_000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Haversine(c.a, c.b)
			if !almostEqual(got, c.want, c.tol) {
				t.Errorf("Haversine(%v, %v) = %.0f, want %.0f±%.0f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2 float64) bool {
		a := Pt(math.Mod(lon1, 180), math.Mod(lat1, 90))
		b := Pt(math.Mod(lon2, 180), math.Mod(lat2, 90))
		return almostEqual(Haversine(a, b), Haversine(b, a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(lonSeed, latSeed, brgSeed, distSeed float64) bool {
		origin := Pt(math.Mod(lonSeed, 170), math.Mod(latSeed, 60))
		bearing := NormalizeHeading(brgSeed)
		dist := math.Mod(math.Abs(distSeed), 500_000) // up to 500 km
		dest := Destination(origin, bearing, dist)
		got := Haversine(origin, dest)
		return almostEqual(got, dist, math.Max(1, dist*1e-6))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDestinationBearing(t *testing.T) {
	origin := Pt(5, 45)
	for _, brg := range []float64{0, 45, 90, 135, 180, 270, 359} {
		dest := Destination(origin, brg, 50_000)
		got := InitialBearing(origin, dest)
		if math.Abs(AngleDiff(brg, got)) > 0.5 {
			t.Errorf("bearing %v: initial bearing to destination = %.2f", brg, got)
		}
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 10)
	if Interpolate(a, b, 0) != a {
		t.Error("f=0 should return a")
	}
	if Interpolate(a, b, 1) != b {
		t.Error("f=1 should return b")
	}
	mid := Interpolate(a, b, 0.5)
	dA, dB := Haversine(a, mid), Haversine(mid, b)
	if !almostEqual(dA, dB, 1) {
		t.Errorf("midpoint not equidistant: %.1f vs %.1f", dA, dB)
	}
}

func TestInterpolateMonotoneDistance(t *testing.T) {
	a, b := Pt(2.0785, 41.2974), Pt(-3.5676, 40.4722)
	total := Haversine(a, b)
	prev := 0.0
	for f := 0.1; f < 1.0; f += 0.1 {
		p := Interpolate(a, b, f)
		d := Haversine(a, p)
		if d < prev {
			t.Fatalf("distance not monotone at f=%.1f", f)
		}
		if !almostEqual(d, f*total, total*0.01) {
			t.Errorf("f=%.1f: distance %.0f, want ≈%.0f", f, d, f*total)
		}
		prev = d
	}
}

func TestENURoundTrip(t *testing.T) {
	enu := NewENU(Pt(23.6, 37.9))
	f := func(dx, dy float64) bool {
		x := math.Mod(dx, 200_000)
		y := math.Mod(dy, 200_000)
		p := enu.Inverse(x, y)
		gx, gy := enu.Forward(p)
		return almostEqual(gx, x, 0.01) && almostEqual(gy, y, 0.01)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestENUDistanceAgreesWithHaversine(t *testing.T) {
	enu := NewENU(Pt(4, 40))
	a, b := Pt(4.1, 40.1), Pt(4.3, 39.95)
	ax, ay := enu.Forward(a)
	bx, by := enu.Forward(b)
	planar := math.Hypot(bx-ax, by-ay)
	sphere := Haversine(a, b)
	if math.Abs(planar-sphere)/sphere > 0.01 {
		t.Errorf("ENU distance %.1f deviates >1%% from haversine %.1f", planar, sphere)
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{10, 350, -20},
		{350, 10, 20},
		{0, 180, 180},
		{90, 270, 180},
		{270, 90, 180},
		{45, 30, -15},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("AngleDiff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngleDiffRange(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		d := AngleDiff(a, b)
		return d > -180-1e-9 && d <= 180+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// angleDiffMod is AngleDiff as it was written before its fast path: one
// math.Mod for every pair.
func angleDiffMod(a, b float64) float64 {
	d := math.Mod(b-a, 360)
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

// TestAngleDiffMatchesModFormula: skipping math.Mod inside (-360, 360)
// leaves every result bit-identical, NaN payloads included, for random
// headings, signed zeros, differences next to ±180 and ±360, NaN and ±Inf.
func TestAngleDiffMatchesModFormula(t *testing.T) {
	check := func(a, b float64) {
		t.Helper()
		if got, want := AngleDiff(a, b), angleDiffMod(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("AngleDiff(%v, %v) = %v (%#x), want %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	negZero := math.Copysign(0, -1)
	edges := []float64{0, negZero, 180, -180, 360, -360, 540, -540, 720, -720,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, e := range []float64{180, -180, 360, -360} {
		edges = append(edges, math.Nextafter(e, math.Inf(1)), math.Nextafter(e, math.Inf(-1)))
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
		check(a, 90)
		check(90, a)
	}
	// Differences next to the edges, from non-zero headings: b-a rounds to
	// either side of the boundary.
	for _, base := range []float64{0.1, 13.37, 179.99, 359.9999999} {
		for _, e := range []float64{180, -180, 360, -360} {
			for _, off := range []float64{0, 1e-13, -1e-13, 1e-9, -1e-9} {
				check(base, base+e+off)
				check(base+e+off, base)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(rng.Float64()*360, rng.Float64()*360)             // headings
		check(rng.Float64()*2000-1000, rng.Float64()*2000-1000) // unnormalised angles
	}
}

func TestNormalizeHeading(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {360, 0}, {-90, 270}, {720.5, 0.5}, {-720, 0}, {359.9, 359.9},
	}
	for _, c := range cases {
		if got := NormalizeHeading(c.in); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalizeHeading(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{Pt(0, 0), Pt(-180, -90), Pt(180, 90)}
	invalid := []Point{Pt(181, 0), Pt(0, 91), Pt(math.NaN(), 0), Pt(0, math.NaN())}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}
