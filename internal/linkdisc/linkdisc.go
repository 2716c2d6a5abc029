// Package linkdisc implements the datAcron spatio-temporal link discovery
// component (Section 4.2.4): streaming discovery of dul:within and
// geosparql:nearTo relations between moving entities (critical points) and
// stationary entities (regions, ports), as well as proximity relations
// among the moving entities themselves.
//
// Blocking uses an equi-grid over space; the temporal dimension is not
// partitioned — a temporal distance threshold lets the component evict
// entities that can no longer satisfy any relation (the "book-keeping"
// process of the paper). The headline optimisation is the cell mask: for
// each cell, the complement of the union of the stationary geometries
// intersecting it, rasterised at sub-cell resolution. A new entity that
// falls in the mask cannot participate in any within/nearTo relation with
// the cell's stationary entities, so all candidate evaluations are skipped.
package linkdisc

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"datacron/internal/geo"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
)

// Relation names the discovered link types.
type Relation string

const (
	Within Relation = "within"
	NearTo Relation = "nearTo"
)

// Link is one discovered relation, stamped with the time of the moving
// entity's position that produced it.
type Link struct {
	Source   string // moving entity (point) ID
	Target   string // stationary entity or other moving entity ID
	Relation Relation
	Time     time.Time
}

// Triple renders the link as an RDF triple under the datAcron ontology.
func (l Link) Triple() rdf.Triple {
	return rdf.Triple{
		S: rdf.NSDatAcron.IRI(entityPath + l.Source),
		P: l.predicate(),
		O: rdf.NSDatAcron.IRI(entityPath + l.Target),
	}
}

// entityPath is where an entity's IRI sits in the datAcron namespace.
const entityPath = "entity/"

// iriKeyPrefix is what rdf.IRI.Key puts before the IRI.
var iriKeyPrefix = rdf.IRI("").Key()

func (l Link) predicate() rdf.IRI {
	if l.Relation == NearTo {
		return ontology.PropNearTo
	}
	return ontology.PropWithin
}

// AppendNT appends l.Triple()'s N-Triples line, byte for byte what
// rdf.Triple.AppendNT writes for it, without building the triple's terms.
func (l Link) AppendNT(dst []byte) []byte {
	dst = append(dst, '<')
	dst = appendEntity(dst, l.Source)
	dst = append(dst, "> <"...)
	dst = append(dst, l.predicate()...)
	dst = append(dst, "> <"...)
	dst = appendEntity(dst, l.Target)
	return append(dst, "> ."...)
}

// AppendKey appends the Key of l.Triple()'s subject.
func (l Link) AppendKey(dst []byte) []byte {
	return appendEntity(append(dst, iriKeyPrefix...), l.Source)
}

// appendEntity appends the IRI of entity id.
func appendEntity(dst []byte, id string) []byte {
	dst = append(dst, rdf.NSDatAcron...)
	dst = append(dst, entityPath...)
	return append(dst, id...)
}

// StaticEntity is a stationary entity: a region polygon or a port point.
type StaticEntity struct {
	ID   string
	Geom geo.Geometry
}

// Config parameterises the discoverer.
type Config struct {
	Extent         geo.Rect // blocking grid extent
	GridCols       int      // default 96
	GridRows       int      // default 96
	MaskResolution int      // sub-cells per cell side; 0 disables masks
	NearDistanceM  float64  // nearTo threshold; 0 disables nearTo
	// TemporalWindow is the point-point proximity window; 0 disables the
	// moving-moving nearTo relation. A remembered point is evicted from its
	// grid cell strictly by temporal distance: it survives while
	// now-point.time <= TemporalWindow (a point aged exactly the window is
	// still a proximity candidate) and is dropped the first time a report
	// visits its cell with a strictly greater distance. Eviction is lazy and
	// event-time driven — cells are cleaned when visited, never by wall
	// clock.
	TemporalWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.GridCols <= 0 {
		c.GridCols = 96
	}
	if c.GridRows <= 0 {
		c.GridRows = 96
	}
	return c
}

// Stats counts the discoverer's work, for the throughput experiment.
type Stats struct {
	Entities    int64 // streaming entities processed
	MaskSkips   int64 // entities dismissed by the cell mask
	Comparisons int64 // precise geometry evaluations performed
	Links       int64 // relations emitted
}

// cellEntry is a stationary candidate attached to a grid cell.
type cellEntry struct {
	idx  int  // index into statics
	near bool // candidate only for nearTo (bbox within buffer, not overlap)
}

// recentPoint supports point-point proximity with temporal book-keeping.
type recentPoint struct {
	id   string
	pos  geo.Point
	time time.Time
}

// Discoverer performs streaming link discovery.
type Discoverer struct {
	cfg     Config
	statics []StaticEntity
	grid    *geo.Grid
	cells   geo.CellLists[cellEntry] // each cell's entries by ascending static index
	masks   map[int][]bool           // cell -> sub-cell raster, built on first probe; true = in mask (skip); nil map = masks off
	recent  map[int][]recentPoint
	stats   Stats
	m       *discMetrics // nil when uninstrumented
}

// NewDiscoverer indexes the stationary entities. Cell masks (the paper
// builds them from the static datasets, e.g. Natura2000 regions — Figure 4)
// are a pure function of the configuration and the statics; each cell's is
// rasterised the first time a point probes it, so neither a start nor a
// restart pays for cells the stream never visits.
func NewDiscoverer(cfg Config, statics []StaticEntity) *Discoverer {
	cfg = cfg.withDefaults()
	if cfg.Extent.IsEmpty() {
		cfg.Extent = geo.Rect{MinLon: -180, MinLat: -90, MaxLon: 180, MaxLat: 90}
	}
	grid := geo.NewGrid(cfg.Extent, cfg.GridCols, cfg.GridRows)
	d := &Discoverer{
		cfg:     cfg,
		statics: statics,
		grid:    grid,
		recent:  make(map[int][]recentPoint),
	}
	// A static is a within candidate of the cells its bounds cover, and a
	// nearTo-only one of the further cells its bounds buffered by the nearTo
	// distance cover.
	d.cells = geo.NewCellLists(grid.NumCells(), func(add func(int, cellEntry)) {
		for i, s := range statics {
			b := s.Geom.Bounds()
			covered := grid.Covering(b)
			for row := covered.R0; row <= covered.R1; row++ {
				for col := covered.C0; col <= covered.C1; col++ {
					add(grid.Index(col, row), cellEntry{idx: i})
				}
			}
			if cfg.NearDistanceM <= 0 {
				continue
			}
			near := grid.Covering(b.Buffer(cfg.NearDistanceM))
			for row := near.R0; row <= near.R1; row++ {
				for col := near.C0; col <= near.C1; col++ {
					if !covered.Contains(col, row) {
						add(grid.Index(col, row), cellEntry{idx: i, near: true})
					}
				}
			}
		}
	})
	if cfg.MaskResolution > 0 {
		d.masks = make(map[int][]bool)
	}
	return d
}

// buildMask rasterises one occupied cell: a sub-cell is in the mask when no
// stationary geometry (buffered by the nearTo distance) intersects it.
func (d *Discoverer) buildMask(cell int) []bool {
	k := d.cfg.MaskResolution
	entries := d.cells.Cell(cell)
	col, row := d.grid.ColRow(cell)
	cellRect := d.grid.CellRect(col, row)
	raster := make([]bool, k*k)
	dLon := cellRect.Width() / float64(k)
	dLat := cellRect.Height() / float64(k)
	for sy := 0; sy < k; sy++ {
		for sx := 0; sx < k; sx++ {
			sub := geo.Rect{
				MinLon: cellRect.MinLon + float64(sx)*dLon,
				MinLat: cellRect.MinLat + float64(sy)*dLat,
				MaxLon: cellRect.MinLon + float64(sx+1)*dLon,
				MaxLat: cellRect.MinLat + float64(sy+1)*dLat,
			}
			inMask := true
			for _, e := range entries {
				g := d.statics[e.idx].Geom
				hit := false
				switch gg := g.(type) {
				case *geo.Polygon:
					if d.cfg.NearDistanceM > 0 {
						hit = gg.Bounds().Buffer(d.cfg.NearDistanceM).Intersects(sub)
						if hit {
							// Tighten with precise distance on sub-cell corners
							// only when the bbox test passes.
							hit = polygonNearRect(gg, sub, d.cfg.NearDistanceM)
						}
					} else {
						hit = gg.IntersectsRect(sub)
					}
				case geo.Point:
					b := gg.Bounds()
					if d.cfg.NearDistanceM > 0 {
						b = b.Buffer(d.cfg.NearDistanceM)
					}
					hit = b.Intersects(sub)
				default:
					hit = true // unknown geometry: never mask it out
				}
				if hit {
					inMask = false
					break
				}
			}
			raster[sy*k+sx] = inMask
		}
	}
	return raster
}

// BuildMasks rasterises now every occupied cell's mask that no probe has
// built yet — for a caller that wants the one-off cost paid up front, such
// as an experiment timing steady-state throughput. Links and stats are the
// same with or without it.
func (d *Discoverer) BuildMasks() {
	if d.masks == nil {
		return
	}
	for cell := 0; cell < d.grid.NumCells(); cell++ {
		if len(d.cells.Cell(cell)) > 0 {
			d.mask(cell)
		}
	}
}

// mask returns an occupied cell's raster, rasterising it on first use.
func (d *Discoverer) mask(cell int) []bool {
	raster, ok := d.masks[cell]
	if !ok {
		raster = d.buildMask(cell)
		d.masks[cell] = raster
	}
	return raster
}

// polygonNearRect reports whether any point of rect is within dist of poly.
func polygonNearRect(poly *geo.Polygon, r geo.Rect, dist float64) bool {
	if poly.IntersectsRect(r) {
		return true
	}
	// Distance from the rect to the polygon: sample the rect's corners and
	// centre; conservative (may over-approximate "near"), which only costs
	// a skipped mask bit, never a missed relation.
	pts := []geo.Point{
		{Lon: r.MinLon, Lat: r.MinLat}, {Lon: r.MaxLon, Lat: r.MinLat},
		{Lon: r.MaxLon, Lat: r.MaxLat}, {Lon: r.MinLon, Lat: r.MaxLat},
		r.Center(),
	}
	for _, p := range pts {
		if poly.DistanceTo(p) <= dist {
			return true
		}
	}
	return false
}

// inMask reports whether p falls in the mask of its (occupied) cell.
func (d *Discoverer) inMask(cell int, p geo.Point) bool {
	raster := d.mask(cell)
	k := d.cfg.MaskResolution
	col, row := d.grid.ColRow(cell)
	cellRect := d.grid.CellRect(col, row)
	sx := int((p.Lon - cellRect.MinLon) / cellRect.Width() * float64(k))
	sy := int((p.Lat - cellRect.MinLat) / cellRect.Height() * float64(k))
	if sx < 0 {
		sx = 0
	}
	if sx >= k {
		sx = k - 1
	}
	if sy < 0 {
		sy = 0
	}
	if sy >= k {
		sy = k - 1
	}
	return raster[sy*k+sx]
}

// ProcessPoint evaluates one streaming entity position and returns the
// relations it satisfies, sorted by (relation, target) for determinism, or
// nil when it satisfies none.
func (d *Discoverer) ProcessPoint(id string, t time.Time, p geo.Point) []Link {
	return d.AppendPoint(nil, id, t, p)
}

// AppendPoint is ProcessPoint appending the relations to dst, for a caller
// that reuses one buffer across points.
func (d *Discoverer) AppendPoint(dst []Link, id string, t time.Time, p geo.Point) []Link {
	if d.m != nil {
		defer func() { d.m.sync(d.stats) }()
	}
	d.stats.Entities++
	cell, ok := d.grid.CellIndex(p)
	if !ok {
		return dst
	}
	start := len(dst)

	// Stationary candidates, unless masked out.
	if entries := d.cells.Cell(cell); len(entries) > 0 {
		if d.masks != nil && d.inMask(cell, p) {
			d.stats.MaskSkips++
		} else {
			for _, e := range entries {
				s := d.statics[e.idx]
				switch g := s.Geom.(type) {
				case *geo.Polygon:
					if !e.near {
						d.stats.Comparisons++
						if g.Contains(p) {
							dst = append(dst, Link{Source: id, Target: s.ID, Relation: Within, Time: t})
							if d.cfg.NearDistanceM > 0 {
								dst = append(dst, Link{Source: id, Target: s.ID, Relation: NearTo, Time: t})
							}
							continue
						}
					}
					if d.cfg.NearDistanceM > 0 {
						d.stats.Comparisons++
						if g.DistanceTo(p) <= d.cfg.NearDistanceM {
							dst = append(dst, Link{Source: id, Target: s.ID, Relation: NearTo, Time: t})
						}
					}
				case geo.Point:
					if d.cfg.NearDistanceM > 0 {
						d.stats.Comparisons++
						if geo.Haversine(g, p) <= d.cfg.NearDistanceM {
							dst = append(dst, Link{Source: id, Target: s.ID, Relation: NearTo, Time: t})
						}
					}
				}
			}
		}
	}

	// Point-point proximity with temporal book-keeping.
	if d.cfg.TemporalWindow > 0 && d.cfg.NearDistanceM > 0 {
		col, row := d.grid.ColRow(cell)
		cells := append(d.grid.Neighbors(col, row), cell)
		for _, c := range cells {
			kept := d.recent[c][:0]
			for _, rp := range d.recent[c] {
				// The paper's book-keeping process: evict strictly by
				// temporal distance. `>` not `>=` — a point aged exactly
				// TemporalWindow is still a candidate (Config.TemporalWindow
				// documents this boundary; TestTemporalEvictionBoundary pins
				// it).
				if t.Sub(rp.time) > d.cfg.TemporalWindow {
					continue
				}
				kept = append(kept, rp)
				if rp.id == id {
					continue
				}
				d.stats.Comparisons++
				if geo.Haversine(rp.pos, p) <= d.cfg.NearDistanceM {
					dst = append(dst, Link{Source: id, Target: rp.id, Relation: NearTo, Time: t})
				}
			}
			d.recent[c] = kept
		}
		d.recent[cell] = append(d.recent[cell], recentPoint{id: id, pos: p, time: t})
	}

	// Links equal in (relation, target) are equal in every field, so the
	// unstable sort still orders them deterministically.
	links := dst[start:]
	slices.SortFunc(links, func(a, b Link) int {
		if c := strings.Compare(string(a.Relation), string(b.Relation)); c != 0 {
			return c
		}
		return strings.Compare(a.Target, b.Target)
	})
	d.stats.Links += int64(len(links))
	return dst
}

// Stats returns the accumulated counters.
func (d *Discoverer) Stats() Stats { return d.stats }

// String summarises the stats.
func (s Stats) String() string {
	return fmt.Sprintf("entities=%d maskSkips=%d comparisons=%d links=%d",
		s.Entities, s.MaskSkips, s.Comparisons, s.Links)
}
