package lowlevel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"datacron/internal/wire"
)

// Profiler snapshot layout (wire package encoding):
//
//	tag 0xCB | version | uvarint #movers | per mover, IDs ascending:
//	  string id | profile
//	profile = stats speed | stats accel | bool hasLast | time last | f64 lastSpeedMS
//	stats   = uvarint n | if n > 0: f64 min | f64 max | f64 sum |
//	          min(n, 5) × f64 marker height |
//	          if n ≥ 5: 3 × uvarint inner marker position
//
// An accumulator is its fixed P² state as raw bit patterns, so Min, Max,
// Mean and Median come back bit for bit, and a profile record is at most
// 2 × 104 + 24 bytes however long the run. A profile record is what the
// shard workers' mover table stores per mover too (AppendProfile,
// ReadProfile).

// ProfileLen is the exact size of p's profile record.
func (p *TrajectoryProfile) ProfileLen() int {
	return p.Speed.statsLen() + p.Accel.statsLen() + 1 + wire.TimeLen(p.lastTime) + 8
}

// AppendProfile appends p's profile record to buf.
func (p *TrajectoryProfile) AppendProfile(buf []byte) []byte {
	buf = p.Speed.appendStats(buf)
	buf = p.Accel.appendStats(buf)
	buf = wire.AppendBool(buf, p.hasLast)
	buf = wire.AppendTime(buf, p.lastTime)
	return wire.AppendFloat64(buf, p.lastSpeedMS)
}

// ReadProfile decodes a profile record of mover id. An accumulator state
// Observe could not have reached fails the read.
func ReadProfile(r *wire.Reader, id string) (TrajectoryProfile, error) {
	p := TrajectoryProfile{MoverID: id}
	if err := p.Speed.readStats(r); err != nil {
		return p, errBadStats(id, "speed", err)
	}
	if err := p.Accel.readStats(r); err != nil {
		return p, errBadStats(id, "acceleration", err)
	}
	p.hasLast = r.Bool()
	p.lastTime = r.Time()
	p.lastSpeedMS = r.Float64()
	return p, nil
}

// markers is the number of marker heights an accumulator of s.n values
// holds.
func (s *RunningStats) markers() int { return int(min(s.n, 5)) }

func (s *RunningStats) statsLen() int {
	n := wire.UvarintLen(uint64(s.n))
	if s.n == 0 {
		return n
	}
	n += 3*8 + 8*s.markers()
	if s.n >= 5 {
		for _, p := range s.pos {
			n += wire.UvarintLen(uint64(p))
		}
	}
	return n
}

func (s *RunningStats) appendStats(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(s.n))
	if s.n == 0 {
		return buf
	}
	buf = wire.AppendFloat64(buf, s.min)
	buf = wire.AppendFloat64(buf, s.max)
	buf = wire.AppendFloat64(buf, s.sum)
	for _, h := range s.q[:s.markers()] {
		buf = wire.AppendFloat64(buf, h)
	}
	if s.n >= 5 {
		for _, p := range s.pos {
			buf = wire.AppendUvarint(buf, uint64(p))
		}
	}
	return buf
}

// Invalid accumulator states, which Observe never reaches.
var (
	errNaNValue   = errors.New("NaN value")
	errMarkers    = errors.New("marker heights out of order")
	errMarkerEnds = errors.New("outer marker heights differ from the minimum and maximum")
	errPositions  = errors.New("marker positions out of order")
)

// readStats decodes an accumulator state into s, validating it first: s is
// only written when the state is one Observe could have reached.
func (s *RunningStats) readStats(r *wire.Reader) error {
	var t RunningStats
	n := r.Uvarint()
	if n > math.MaxInt64 {
		r.Fail()
	}
	if t.n = int64(n); t.n == 0 || r.Failed() {
		*s = RunningStats{}
		return nil
	}
	t.min, t.max, t.sum = r.Float64(), r.Float64(), r.Float64()
	k := t.markers()
	for i := range t.q[:k] {
		t.q[i] = r.Float64()
	}
	if t.n >= 5 {
		for i := range t.pos {
			t.pos[i] = int64(min(r.Uvarint(), n))
		}
	}
	if r.Failed() {
		return nil // the caller reports the malformed blob
	}
	switch {
	case math.IsNaN(t.min) || math.IsNaN(t.max) || slices.ContainsFunc(t.q[:k], math.IsNaN):
		return errNaNValue
	case !slices.IsSorted(t.q[:k]):
		return errMarkers
	case t.q[0] != t.min || t.q[k-1] != t.max:
		return errMarkerEnds
	case t.n >= 5 && !(1 < t.pos[0] && t.pos[0] < t.pos[1] && t.pos[1] < t.pos[2] && t.pos[2] < t.n):
		return errPositions
	}
	*s = t
	return nil
}

// Snapshot serializes every mover's profile (checkpoint.Snapshotter).
func (pf *Profiler) Snapshot() ([]byte, error) {
	ids := pf.MoverIDs()
	size := wire.HeaderLen + wire.UvarintLen(uint64(len(ids)))
	for _, id := range ids {
		size += wire.StringLen(id) + pf.profiles[id].ProfileLen()
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagProfiler)
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = wire.AppendString(buf, id)
		buf = pf.profiles[id].AppendProfile(buf)
	}
	return buf, nil
}

// Restore replaces the profiler's state with a snapshot taken by Snapshot.
// It decodes and validates into a fresh map; on error the profiler is left
// as it was.
func (pf *Profiler) Restore(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(wire.TagProfiler); err != nil {
		return fmt.Errorf("lowlevel: restore profiler: %w", err)
	}
	// A profile is at least an ID's length prefix, two counts, the flag, a
	// time and a float.
	n := r.Count(1 + 2 + 1 + 2 + 8)
	profiles := make(map[string]*TrajectoryProfile, n)
	prev := ""
	for i := 0; i < n && !r.Failed(); i++ {
		id := r.Str()
		if i > 0 && id <= prev && !r.Failed() {
			return errMoverOrder("profiler", id)
		}
		prev = id
		p, err := ReadProfile(r, id)
		if err != nil {
			return restoreErr("profiler", err)
		}
		profiles[id] = &p
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("lowlevel: restore profiler: %w", err)
	}
	pf.profiles = profiles
	return nil
}

func restoreErr(op string, err error) error {
	return fmt.Errorf("lowlevel: restore %s: %w", op, err)
}

func errBadStats(id, attr string, err error) error {
	return fmt.Errorf("%s statistics of %s: %w", attr, id, err)
}

func errMoverOrder(op, id string) error {
	return fmt.Errorf("lowlevel: restore %s: %w: mover %q out of ascending order", op, wire.ErrMalformed, id)
}

// Area monitor snapshot layout:
//
//	tag 0xC4 | version | uvarint #movers | per mover, IDs ascending:
//	  string id | regions
//	regions = uvarint #regions | uvarint region index, ascending
//
// The region index and grid are functions of the configured regions, rebuilt
// identically on restart, so only the dynamic membership is captured. A
// regions record is what the shard workers' mover table stores per mover
// too (AppendRegions, ReadRegions).

// RegionsLen is the exact size of s's regions record.
func (s Regions) RegionsLen() int {
	n := wire.UvarintLen(uint64(s.Len()))
	s.each(func(ri int) { n += wire.UvarintLen(uint64(ri)) })
	return n
}

// AppendRegions appends s's regions record to buf.
func (s Regions) AppendRegions(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(s.Len()))
	s.each(func(ri int) { buf = wire.AppendUvarint(buf, uint64(ri)) })
	return buf
}

// ReadRegions decodes a regions record against the monitor's regions. An
// index out of range or out of ascending order fails the read.
func (m *AreaMonitor) ReadRegions(r *wire.Reader, id string) (Regions, error) {
	var s Regions
	k := r.Count(1)
	last := -1
	for j := 0; j < k && !r.Failed(); j++ {
		v := r.Uvarint()
		if r.Failed() {
			break
		}
		if v >= uint64(len(m.regions)) {
			return nil, errRegionIndex(v, len(m.regions))
		}
		if int(v) <= last {
			return nil, errRegionOrder(id, v)
		}
		last = int(v)
		if s == nil {
			s = make(Regions, len(m.cur))
		}
		s[last>>6] |= 1 << (last & 63)
	}
	return s, nil
}

// Snapshot serializes the monitor's inside-sets (checkpoint.Snapshotter).
func (m *AreaMonitor) Snapshot() ([]byte, error) {
	ids := make([]string, 0, len(m.inside))
	for id := range m.inside {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	size := wire.HeaderLen + wire.UvarintLen(uint64(len(ids)))
	for _, id := range ids {
		size += wire.StringLen(id) + m.inside[id].RegionsLen()
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagArea)
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = wire.AppendString(buf, id)
		buf = m.inside[id].AppendRegions(buf)
	}
	return buf, nil
}

// Restore replaces the monitor's inside-sets with a snapshot taken by
// Snapshot against a monitor built over the same regions. On error the
// monitor is left as it was.
func (m *AreaMonitor) Restore(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(wire.TagArea); err != nil {
		return fmt.Errorf("lowlevel: restore area monitor: %w", err)
	}
	n := r.Count(2) // an ID's length prefix and a region count
	inside := make(map[string]Regions, n)
	prev := ""
	for i := 0; i < n && !r.Failed(); i++ {
		id := r.Str()
		if i > 0 && id <= prev && !r.Failed() {
			return errMoverOrder("area monitor", id)
		}
		prev = id
		s, err := m.ReadRegions(r, id)
		if err != nil {
			return restoreErr("area monitor", err)
		}
		if s.Len() > 0 { // an empty set is not held
			inside[id] = s
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("lowlevel: restore area monitor: %w", err)
	}
	m.inside = inside
	return nil
}

func errRegionIndex(ri uint64, regions int) error {
	return fmt.Errorf("region index %d out of range for %d regions", ri, regions)
}

func errRegionOrder(id string, ri uint64) error {
	return fmt.Errorf("%w: region index %d of %q out of ascending order", wire.ErrMalformed, ri, id)
}
