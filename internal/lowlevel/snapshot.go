package lowlevel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"datacron/internal/wire"
)

// Profiler snapshot layout (wire package encoding):
//
//	tag 0xC3 | version | uvarint #movers | per mover, IDs ascending:
//	  string id | profile
//	profile = f64s speed | f64s accel | bool hasLast | time last | f64 lastSpeedMS
//
// Each accumulator is its values in observation order, as raw bit patterns;
// count, sum, min and max are folded again on restore, in the same order,
// so they come back bit for bit. A profile record is what the shard
// workers' mover table stores per mover too (AppendProfile, ReadProfile).

// ProfileLen is the exact size of p's profile record.
func (p *TrajectoryProfile) ProfileLen() int {
	return wire.Float64sLen(p.Speed.vals) + wire.Float64sLen(p.Accel.vals) + 1 +
		wire.TimeLen(p.lastTime) + 8
}

// AppendProfile appends p's profile record to buf.
func (p *TrajectoryProfile) AppendProfile(buf []byte) []byte {
	buf = wire.AppendFloat64s(buf, p.Speed.vals)
	buf = wire.AppendFloat64s(buf, p.Accel.vals)
	buf = wire.AppendBool(buf, p.hasLast)
	buf = wire.AppendTime(buf, p.lastTime)
	return wire.AppendFloat64(buf, p.lastSpeedMS)
}

// ReadProfile decodes a profile record of mover id. A NaN among the values
// is one Observe would have skipped, and fails the read.
func ReadProfile(r *wire.Reader, id string) (TrajectoryProfile, error) {
	p := TrajectoryProfile{MoverID: id}
	if err := readStats(r, &p.Speed); err != nil {
		return p, errBadStats(id, "speed", err)
	}
	if err := readStats(r, &p.Accel); err != nil {
		return p, errBadStats(id, "acceleration", err)
	}
	p.hasLast = r.Bool()
	p.lastTime = r.Time()
	p.lastSpeedMS = r.Float64()
	return p, nil
}

// errNaNValue marks an accumulator holding a NaN, which Observe skips.
var errNaNValue = errors.New("NaN value")

// readStats folds a counted run of values into s, exactly as Observe did.
func readStats(r *wire.Reader, s *RunningStats) error {
	vals := r.Float64s()
	for _, v := range vals {
		if math.IsNaN(v) {
			return errNaNValue
		}
	}
	// Observe appends each value over itself: the decoded run is the
	// accumulator's storage, sized exactly.
	*s = RunningStats{vals: vals[:0]}
	for _, v := range vals {
		s.Observe(v)
	}
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
	// A profile is at least an ID's length prefix, two value counts, the
	// flag, a time and a float.
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
