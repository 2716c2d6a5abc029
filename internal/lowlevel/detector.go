package lowlevel

import (
	"math/bits"
	"sort"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// Region is a monitored geographical zone for entry/exit detection.
type Region struct {
	ID   string
	Geom *geo.Polygon
}

// AreaEventType distinguishes entries from exits.
type AreaEventType int

const (
	Entry AreaEventType = iota
	Exit
)

func (t AreaEventType) String() string {
	if t == Entry {
		return "entry"
	}
	return "exit"
}

// AreaEvent records a mover crossing a monitored region boundary.
type AreaEvent struct {
	MoverID string
	AreaID  string
	Type    AreaEventType
	Time    time.Time
	Pos     geo.Point
}

// AreaMonitor annotates a position stream with entry/exit events. A spatial
// grid over the monitored regions keeps each update sub-linear in the number
// of regions. Step is the per-mover update over a caller's Regions; Update
// wraps it over the monitor's own mover table.
type AreaMonitor struct {
	regions []Region
	grid    *geo.Grid
	cells   geo.CellLists[int] // cell index -> region indices with bbox overlap, ascending
	inside  map[string]Regions // Update's movers -> regions currently inside, none empty
	// Step's scratch: the regions containing the position being stepped,
	// and the regions whose membership it changed.
	cur, changed Regions
}

// Regions is a set of region indices of one monitor — one mover's area
// membership — as a bitset. The nil set is empty; a set holds no storage
// until it first gains a region.
type Regions []uint64

// Len returns the number of regions in the set.
func (s Regions) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s Regions) has(ri int) bool { return ri>>6 < len(s) && s[ri>>6]&(1<<(ri&63)) != 0 }

// each calls f with every region index in the set, ascending.
func (s Regions) each(f func(ri int)) {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			f(i<<6 | bits.TrailingZeros64(w))
		}
	}
}

// NewAreaMonitor indexes the regions for streaming lookups. gridN controls
// the index resolution (gridN×gridN cells over the regions' joint extent).
func NewAreaMonitor(regions []Region, gridN int) *AreaMonitor {
	if gridN < 1 {
		gridN = 64
	}
	extent := geo.EmptyRect()
	for _, rg := range regions {
		extent = extent.ExtendRect(rg.Geom.Bounds())
	}
	words := (len(regions) + 63) / 64
	m := &AreaMonitor{
		regions: regions,
		inside:  make(map[string]Regions),
		cur:     make(Regions, words),
		changed: make(Regions, words),
	}
	if extent.IsEmpty() {
		return m
	}
	grid := geo.NewGrid(extent, gridN, gridN)
	m.grid = grid
	m.cells = geo.NewCellLists(grid.NumCells(), func(add func(int, int)) {
		for ri, rg := range regions {
			cr := grid.Covering(rg.Geom.Bounds())
			for row := cr.R0; row <= cr.R1; row++ {
				for col := cr.C0; col <= cr.C1; col++ {
					add(grid.Index(col, row), ri)
				}
			}
		}
	})
	return m
}

// Step moves in, one mover's membership, to the regions containing p and
// returns the regions it entered or left: those now in in were entered, the
// others left, and their count is the number of entry/exit events. The
// result is the monitor's scratch, valid until the next Step. Step does not
// allocate, except when in gains its first region.
func (m *AreaMonitor) Step(in *Regions, p geo.Point) Regions {
	cur := m.cur
	clear(cur)
	if m.grid != nil {
		if cell, ok := m.grid.CellIndex(p); ok {
			for _, ri := range m.cells.Cell(cell) {
				if m.regions[ri].Geom.Contains(p) {
					cur[ri>>6] |= 1 << (ri & 63)
				}
			}
		}
	}
	if *in == nil && cur.Len() > 0 {
		*in = make(Regions, len(cur))
	}
	// A nil in means cur is empty too: nothing changed.
	clear(m.changed)
	for i, w := range *in {
		m.changed[i] = w ^ cur[i]
	}
	copy(*in, cur)
	return m.changed
}

// Update processes one report and returns the entry/exit events it causes.
// Events are ordered by type, then area ID, for determinism.
func (m *AreaMonitor) Update(r mobility.Report) []AreaEvent {
	in := m.inside[r.ID]
	// out stays nil on purpose: boundary crossings are rare relative to the
	// report rate, and pre-sizing would allocate on every update.
	var out []AreaEvent
	m.Step(&in, r.Pos).each(func(ri int) {
		typ := Exit
		if in.has(ri) {
			typ = Entry
		}
		//lint:ignore hotalloc nil-until-first-event result slice; crossings are rare
		out = append(out, AreaEvent{MoverID: r.ID, AreaID: m.regions[ri].ID, Type: typ, Time: r.Time, Pos: r.Pos})
	})
	if in.Len() == 0 {
		delete(m.inside, r.ID)
	} else {
		m.inside[r.ID] = in
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].AreaID < out[j].AreaID
	})
	return out
}

// Inside reports the region IDs the mover is currently inside.
func (m *AreaMonitor) Inside(moverID string) []string {
	var out []string
	m.inside[moverID].each(func(ri int) { out = append(out, m.regions[ri].ID) })
	sort.Strings(out)
	return out
}

// TrajectoryProfile aggregates the paper's per-trajectory in-situ metadata:
// running statistics of speed and acceleration, used downstream for data
// quality assessment.
type TrajectoryProfile struct {
	MoverID string
	Speed   RunningStats // knots
	Accel   RunningStats // m/s²
	// The previous report's time and speed, for the next acceleration.
	lastTime    time.Time
	lastSpeedMS float64
	hasLast     bool
}

// NewTrajectoryProfile returns an empty profile for a mover.
func NewTrajectoryProfile(moverID string) *TrajectoryProfile {
	return &TrajectoryProfile{MoverID: moverID}
}

// Observe folds one report into the profile in O(1). Acceleration is
// derived from consecutive speed-over-ground samples.
func (p *TrajectoryProfile) Observe(r mobility.Report) {
	p.Speed.Observe(r.SpeedKn)
	speed := r.SpeedMS()
	if p.hasLast {
		dt := r.Time.Sub(p.lastTime).Seconds()
		if dt > 0 {
			p.Accel.Observe((speed - p.lastSpeedMS) / dt)
		}
	}
	p.lastTime, p.lastSpeedMS, p.hasLast = r.Time, speed, true
}

// Profiler maintains TrajectoryProfiles for every mover on a stream.
type Profiler struct {
	profiles map[string]*TrajectoryProfile
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{profiles: make(map[string]*TrajectoryProfile)}
}

// Reset discards every profile, returning the profiler to its initial
// state.
func (pf *Profiler) Reset() {
	pf.profiles = make(map[string]*TrajectoryProfile)
}

// Add makes p the profile of its mover, replacing any profile it had: a
// reader over profiles kept elsewhere (the shard workers' mover tables)
// gathers them into one Profiler.
func (pf *Profiler) Add(p *TrajectoryProfile) { pf.profiles[p.MoverID] = p }

// Observe folds a report into its mover's profile.
func (pf *Profiler) Observe(r mobility.Report) {
	p, ok := pf.profiles[r.ID]
	if !ok {
		p = NewTrajectoryProfile(r.ID)
		pf.profiles[r.ID] = p
	}
	p.Observe(r)
}

// Profile returns a mover's profile, or nil if unseen.
func (pf *Profiler) Profile(moverID string) *TrajectoryProfile {
	return pf.profiles[moverID]
}

// MoverIDs returns the sorted IDs with profiles.
func (pf *Profiler) MoverIDs() []string {
	out := make([]string, 0, len(pf.profiles))
	for id := range pf.profiles {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
