package linkdisc

import (
	"fmt"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/ontology"
)

var t0 = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

func squarePoly(minLon, minLat, maxLon, maxLat float64) *geo.Polygon {
	return geo.MustPolygon([]geo.Point{
		geo.Pt(minLon, minLat), geo.Pt(maxLon, minLat),
		geo.Pt(maxLon, maxLat), geo.Pt(minLon, maxLat),
	})
}

func testStatics() []StaticEntity {
	return []StaticEntity{
		{ID: "region-a", Geom: squarePoly(23.0, 37.0, 23.5, 37.5)},
		{ID: "region-b", Geom: squarePoly(24.0, 38.0, 24.4, 38.4)},
		{ID: "port-1", Geom: geo.Pt(23.63, 37.94)},
	}
}

func baseConfig(maskRes int) Config {
	return Config{
		Extent:         geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 26, MaxLat: 40},
		GridCols:       40,
		GridRows:       40,
		MaskResolution: maskRes,
		NearDistanceM:  5_000,
	}
}

func findLink(links []Link, rel Relation, target string) bool {
	for _, l := range links {
		if l.Relation == rel && l.Target == target {
			return true
		}
	}
	return false
}

func TestWithinDetection(t *testing.T) {
	for _, maskRes := range []int{0, 8} {
		t.Run(fmt.Sprintf("mask=%d", maskRes), func(t *testing.T) {
			d := NewDiscoverer(baseConfig(maskRes), testStatics())
			links := d.ProcessPoint("v1", t0, geo.Pt(23.2, 37.2))
			if !findLink(links, Within, "region-a") {
				t.Errorf("within region-a not found: %v", links)
			}
			// Inside region implies nearTo as well.
			if !findLink(links, NearTo, "region-a") {
				t.Errorf("nearTo region-a not implied: %v", links)
			}
			if findLink(links, Within, "region-b") {
				t.Error("false within region-b")
			}
		})
	}
}

func TestNearToRegionBoundary(t *testing.T) {
	for _, maskRes := range []int{0, 8} {
		d := NewDiscoverer(baseConfig(maskRes), testStatics())
		// ~2 km east of region-a's east edge at mid latitude.
		p := geo.Destination(geo.Pt(23.5, 37.25), 90, 2_000)
		links := d.ProcessPoint("v1", t0, p)
		if !findLink(links, NearTo, "region-a") {
			t.Errorf("mask=%d: nearTo region-a missed at 2km: %v", maskRes, links)
		}
		if findLink(links, Within, "region-a") {
			t.Errorf("mask=%d: false within", maskRes)
		}
		// 20 km away: no relation.
		far := geo.Destination(geo.Pt(23.5, 37.25), 90, 20_000)
		if links := d.ProcessPoint("v2", t0, far); len(links) != 0 {
			t.Errorf("mask=%d: unexpected links at 20km: %v", maskRes, links)
		}
	}
}

func TestNearToPort(t *testing.T) {
	for _, maskRes := range []int{0, 8} {
		d := NewDiscoverer(baseConfig(maskRes), testStatics())
		p := geo.Destination(geo.Pt(23.63, 37.94), 180, 3_000)
		links := d.ProcessPoint("v1", t0, p)
		if !findLink(links, NearTo, "port-1") {
			t.Errorf("mask=%d: nearTo port missed: %v", maskRes, links)
		}
	}
}

func TestMaskAndNoMaskAgree(t *testing.T) {
	// Property: masks are a pure optimisation — identical links either way —
	// and building them lazily is one too: a mask rasterised on a cell's
	// first probe is the mask an up-front build gives that cell.
	statics := make([]StaticEntity, 0, 40)
	for i, a := range gen.Areas(5, gen.ProtectedArea, 30, geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 26, MaxLat: 40}, 2_000, 15_000) {
		statics = append(statics, StaticEntity{ID: fmt.Sprintf("area-%d", i), Geom: a.Geom})
	}
	for i, p := range gen.Ports(6, 10, geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 26, MaxLat: 40}) {
		statics = append(statics, StaticEntity{ID: fmt.Sprintf("port-%d", i), Geom: p.Pos})
	}
	noMask := NewDiscoverer(baseConfig(0), statics)
	withMask := NewDiscoverer(baseConfig(8), statics)
	eager := NewDiscoverer(baseConfig(8), statics)
	eager.BuildMasks()
	noMask.BuildMasks() // masks off: nothing to build
	if len(eager.masks) != occupiedCells(eager) || noMask.masks != nil {
		t.Fatalf("BuildMasks built %d masks for %d occupied cells (masks off: %v)", len(eager.masks), occupiedCells(eager), noMask.masks)
	}

	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 7,
		Region: geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 26, MaxLat: 40}})
	reports := sim.Run(30 * time.Minute)
	for _, r := range reports {
		a := noMask.ProcessPoint(r.ID, r.Time, r.Pos)
		b := withMask.ProcessPoint(r.ID, r.Time, r.Pos)
		c := eager.ProcessPoint(r.ID, r.Time, r.Pos)
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("link sets differ at %s: %v vs %v vs %v", r.ID, a, b, c)
		}
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] {
				t.Fatalf("link %d differs: %v vs %v vs %v", i, a[i], b[i], c[i])
			}
		}
	}
	// The masked variant must have done strictly less precise work.
	if withMask.Stats().Comparisons >= noMask.Stats().Comparisons {
		t.Errorf("masks should reduce comparisons: %d vs %d",
			withMask.Stats().Comparisons, noMask.Stats().Comparisons)
	}
	if withMask.Stats().MaskSkips == 0 {
		t.Error("mask never fired")
	}
	if withMask.Stats() != eager.Stats() {
		t.Errorf("lazy masks changed the stats: %v vs %v", withMask.Stats(), eager.Stats())
	}
	if n := len(withMask.masks); n == 0 || n >= occupiedCells(withMask) {
		t.Errorf("the stream should have built some masks, not all: %d of %d cells", n, occupiedCells(withMask))
	}
	for cell, want := range eager.masks {
		got := withMask.mask(cell) // the first probe, for the cells the stream never visited
		if len(got) != len(want) {
			t.Fatalf("cell %d: lazy mask has %d sub-cells, eager %d", cell, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cell %d sub-cell %d: lazy %v, eager %v", cell, i, got[i], want[i])
			}
		}
	}
}

func TestPointPointProximity(t *testing.T) {
	cfg := baseConfig(0)
	cfg.TemporalWindow = 10 * time.Minute
	d := NewDiscoverer(cfg, nil)
	base := geo.Pt(25.0, 39.0)
	// v1 reports, then v2 reports 1km away within the window.
	d.ProcessPoint("v1", t0, base)
	links := d.ProcessPoint("v2", t0.Add(2*time.Minute), geo.Destination(base, 90, 1_000))
	if !findLink(links, NearTo, "v1") {
		t.Fatalf("proximity missed: %v", links)
	}
	// v3 reports nearby but outside the temporal window of v1.
	links = d.ProcessPoint("v3", t0.Add(30*time.Minute), geo.Destination(base, 0, 500))
	if findLink(links, NearTo, "v1") {
		t.Error("expired point should have been cleaned up")
	}
	// Far point: no relation.
	links = d.ProcessPoint("v4", t0.Add(31*time.Minute), geo.Destination(base, 90, 50_000))
	if len(links) != 0 {
		t.Errorf("unexpected links: %v", links)
	}
}

func TestPointPointAcrossCells(t *testing.T) {
	cfg := baseConfig(0)
	cfg.TemporalWindow = 10 * time.Minute
	cfg.NearDistanceM = 8_000
	d := NewDiscoverer(cfg, nil)
	// Two points straddling a cell boundary: grid cell size is 0.1° ≈ 9km,
	// so pick points either side of a boundary ~3km apart.
	d.ProcessPoint("a", t0, geo.Pt(24.099, 38.0))
	links := d.ProcessPoint("b", t0.Add(time.Minute), geo.Pt(24.101, 38.0))
	if !findLink(links, NearTo, "a") {
		t.Errorf("cross-cell proximity missed: %v", links)
	}
}

func TestSelfProximityExcluded(t *testing.T) {
	cfg := baseConfig(0)
	cfg.TemporalWindow = 10 * time.Minute
	d := NewDiscoverer(cfg, nil)
	p := geo.Pt(25, 39)
	d.ProcessPoint("v1", t0, p)
	links := d.ProcessPoint("v1", t0.Add(time.Minute), geo.Destination(p, 90, 100))
	if findLink(links, NearTo, "v1") {
		t.Error("an entity should not be near itself")
	}
}

func TestPointOutsideExtent(t *testing.T) {
	d := NewDiscoverer(baseConfig(8), testStatics())
	if links := d.ProcessPoint("v1", t0, geo.Pt(0, 0)); links != nil {
		t.Errorf("points outside the grid should produce no links: %v", links)
	}
}

func TestLinkTriple(t *testing.T) {
	l := Link{Source: "v1", Target: "region-a", Relation: Within, Time: t0}
	tr := l.Triple()
	if tr.P != ontology.PropWithin {
		t.Errorf("predicate = %v", tr.P)
	}
	l2 := Link{Source: "v1", Target: "port-1", Relation: NearTo, Time: t0}
	if l2.Triple().P != ontology.PropNearTo {
		t.Error("nearTo predicate wrong")
	}
}

func TestStatsString(t *testing.T) {
	d := NewDiscoverer(baseConfig(4), testStatics())
	d.ProcessPoint("v1", t0, geo.Pt(23.2, 37.2))
	if s := d.Stats().String(); s == "" {
		t.Error("stats string empty")
	}
	if d.Stats().Entities != 1 {
		t.Errorf("entities = %d", d.Stats().Entities)
	}
}

// TestTemporalEvictionBoundary pins the book-keeping contract documented on
// Config.TemporalWindow: grid-cell state is evicted strictly by temporal
// distance. A point aged exactly the window is still a proximity candidate;
// one aged a moment more is both link-invisible and physically removed from
// the visited cell's state.
func TestTemporalEvictionBoundary(t *testing.T) {
	cfg := baseConfig(0)
	cfg.TemporalWindow = 10 * time.Minute
	d := NewDiscoverer(cfg, nil)
	base := geo.Pt(25.0, 39.0)
	d.ProcessPoint("old", t0, base)

	// Exactly at the window edge: strict `>` retains the point.
	links := d.ProcessPoint("edge", t0.Add(10*time.Minute), geo.Destination(base, 90, 1_000))
	if !findLink(links, NearTo, "old") {
		t.Fatalf("point aged exactly TemporalWindow must still match: %v", links)
	}

	// One second past the window: evicted, so no link...
	links = d.ProcessPoint("late", t0.Add(10*time.Minute+time.Second), geo.Destination(base, 0, 1_000))
	if findLink(links, NearTo, "old") {
		t.Fatalf("point aged past TemporalWindow must be evicted: %v", links)
	}
	// ...and the state itself is gone from every visited cell, not just
	// skipped (the lazy cleanup really frees the memory).
	for c, pts := range d.recent {
		for _, rp := range pts {
			if rp.id == "old" {
				t.Errorf("evicted point still stored in cell %d", c)
			}
		}
	}
}

// TestAppendPointMatchesProcessPoint: appending into a reused buffer leaves
// what the buffer held in place and appends exactly what ProcessPoint
// returns, stats included, on a stream that exercises the statics and the
// point-point proximity path.
func TestAppendPointMatchesProcessPoint(t *testing.T) {
	cfg := baseConfig(8)
	cfg.TemporalWindow = 10 * time.Minute
	statics := testStatics()
	for i, a := range gen.Areas(5, gen.ProtectedArea, 30, cfg.Extent, 2_000, 15_000) {
		statics = append(statics, StaticEntity{ID: fmt.Sprintf("area-%d", i), Geom: a.Geom})
	}
	byProcess, byAppend := NewDiscoverer(cfg, statics), NewDiscoverer(cfg, statics)
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 7, Region: cfg.Extent})
	sentinel := Link{Source: "kept", Target: "kept", Relation: NearTo, Time: t0}
	buf := []Link{sentinel}
	links := 0
	for _, r := range sim.Run(30 * time.Minute) {
		want := byProcess.ProcessPoint(r.ID, r.Time, r.Pos)
		buf = byAppend.AppendPoint(buf[:1], r.ID, r.Time, r.Pos)
		if buf[0] != sentinel {
			t.Fatalf("AppendPoint overwrote the buffer's prefix: %v", buf[0])
		}
		got := buf[1:]
		if len(got) != len(want) {
			t.Fatalf("%s at %s: appended %d links, ProcessPoint returned %d", r.ID, r.Time, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("link %d: appended %v, ProcessPoint returned %v", i, got[i], want[i])
			}
		}
		links += len(want)
	}
	if links == 0 {
		t.Fatal("the stream produced no links")
	}
	if byProcess.Stats() != byAppend.Stats() {
		t.Errorf("stats differ: %v vs %v", byProcess.Stats(), byAppend.Stats())
	}
}

// TestAppendPointAllocs: probing the statics into a buffer that has room
// allocates nothing once the probed cell's mask is built.
func TestAppendPointAllocs(t *testing.T) {
	d := NewDiscoverer(baseConfig(8), testStatics())
	p := geo.Pt(23.2, 37.2) // inside region-a
	buf := d.AppendPoint(nil, "v1", t0, p)
	if len(buf) == 0 {
		t.Fatal("fixture point has no links")
	}
	if n := testing.AllocsPerRun(200, func() { buf = d.AppendPoint(buf[:0], "v1", t0, p) }); n != 0 {
		t.Errorf("AppendPoint made %v allocations, want 0", n)
	}
}

// TestLinkAppendsMatchTriple: a link's line and subject key are what its
// Triple encodes to, for either relation and IDs N-Triples does not escape.
func TestLinkAppendsMatchTriple(t *testing.T) {
	for _, l := range []Link{
		{Source: "v1", Target: "region-a", Relation: Within, Time: t0},
		{Source: "227006760", Target: "port-1", Relation: NearTo, Time: t0},
		{Source: "", Target: "", Relation: NearTo},
		{Source: `say "hi"\`, Target: "ναυς>", Relation: Within},
	} {
		tr := l.Triple()
		if got, want := l.AppendNT([]byte("x")), tr.AppendNT([]byte("x")); string(got) != string(want) {
			t.Errorf("AppendNT = %s, want %s", got, want)
		}
		if got, want := l.AppendKey([]byte("x")), "x"+tr.S.Key(); string(got) != want {
			t.Errorf("AppendKey = %q, want %q", got, want)
		}
	}
}

// occupiedCells counts the grid cells that hold a stationary candidate.
func occupiedCells(d *Discoverer) int {
	n := 0
	for cell := 0; cell < d.grid.NumCells(); cell++ {
		if len(d.cells.Cell(cell)) > 0 {
			n++
		}
	}
	return n
}

// TestCellIndexMatchesPerCellAppend: the flat cell index holds, cell by
// cell and in order, the entries appending each static's within cells and
// then its further nearTo cells to a per-cell list gives — with and without
// nearTo, for statics inside, straddling and outside the extent.
func TestCellIndexMatchesPerCellAppend(t *testing.T) {
	region := geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 26, MaxLat: 40}
	statics := testStatics()
	for i, a := range gen.Areas(5, gen.ProtectedArea, 40, region, 3_000, 25_000) {
		statics = append(statics, StaticEntity{ID: fmt.Sprintf("area-%d", i), Geom: a.Geom})
	}
	for i, p := range gen.Ports(6, 20, region) {
		statics = append(statics, StaticEntity{ID: fmt.Sprintf("port-%d", i), Geom: p.Pos})
	}
	statics = append(statics,
		StaticEntity{ID: "edge", Geom: squarePoly(25.8, 39.8, 26.3, 40.3)},
		StaticEntity{ID: "off-grid", Geom: geo.Pt(26.02, 37)})
	for _, near := range []float64{0, 5_000} {
		cfg := baseConfig(8)
		cfg.NearDistanceM = near
		d := NewDiscoverer(cfg, statics)
		want := map[int][]cellEntry{}
		for i, s := range statics {
			b := s.Geom.Bounds()
			covered := map[int]bool{}
			for _, c := range d.grid.CoveringCells(b) {
				want[c] = append(want[c], cellEntry{idx: i})
				covered[c] = true
			}
			if near > 0 {
				for _, c := range d.grid.CoveringCells(b.Buffer(near)) {
					if !covered[c] {
						want[c] = append(want[c], cellEntry{idx: i, near: true})
					}
				}
			}
		}
		nearEntries := 0
		for cell := 0; cell < d.grid.NumCells(); cell++ {
			got := d.cells.Cell(cell)
			if fmt.Sprint(got) != fmt.Sprint(want[cell]) && len(got)+len(want[cell]) > 0 {
				t.Fatalf("near=%v cell %d: %v, want %v", near, cell, got, want[cell])
			}
			for _, e := range got {
				if e.near {
					nearEntries++
				}
			}
		}
		if occupiedCells(d) != len(want) || (near > 0) != (nearEntries > 0) {
			t.Errorf("near=%v: %d occupied cells (%d nearTo entries), want %d", near, occupiedCells(d), nearEntries, len(want))
		}
	}
}
