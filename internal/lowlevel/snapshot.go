package lowlevel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"datacron/internal/mobility"
	"datacron/internal/wire"
)

// Profiler snapshot layout (wire package encoding):
//
//	tag 0xC3 | version | uvarint #movers | per mover, IDs ascending:
//	  string id | stats speed | stats accel | bool hasLast | bytes last
//	stats = varint n | f64 sum | f64 min | f64 max | f64s lo | f64s hi
//
// last is mobility's framed report encoding. Min/max are raw bit patterns,
// so an empty accumulator's ±Inf sentinels round-trip as they are. lo/hi
// are the heap slices verbatim: the heap invariant is positional, so
// copying the backing arrays preserves it.

func statsLen(s *RunningStats) int {
	return wire.VarintLen(s.n) + 3*8 + wire.Float64sLen(s.lo) + wire.Float64sLen(s.hi)
}

func appendStats(buf []byte, s *RunningStats) []byte {
	buf = wire.AppendVarint(buf, s.n)
	buf = wire.AppendFloat64(buf, s.sum)
	buf = wire.AppendFloat64(buf, s.min)
	buf = wire.AppendFloat64(buf, s.max)
	buf = wire.AppendFloat64s(buf, s.lo)
	return wire.AppendFloat64s(buf, s.hi)
}

// readStats decodes one accumulator and reports what makes it one that
// Observe could not have produced: a NaN sum, a count that is not the two
// heaps' sizes, heaps out of balance or out of order, or a low half reaching
// above the high half. Median indexes the heaps on the strength of these
// invariants.
func readStats(r *wire.Reader) (*RunningStats, error) {
	s := &RunningStats{n: r.Varint(), sum: r.Float64(), min: r.Float64(), max: r.Float64()}
	s.lo, s.hi = r.Float64s(), r.Float64s()
	switch {
	case r.Failed():
		return nil, wire.ErrMalformed
	case math.IsNaN(s.sum):
		return nil, errors.New("NaN sum")
	case s.n != int64(len(s.lo)+len(s.hi)):
		return nil, errors.New("count differs from the median heaps' sizes")
	case len(s.lo) != len(s.hi) && len(s.lo) != len(s.hi)+1:
		return nil, errors.New("unbalanced median heaps")
	case !isHeap(s.lo, true) || !isHeap(s.hi, false):
		return nil, errors.New("median heap out of order")
	case len(s.hi) > 0 && s.lo[0] > s.hi[0]:
		return nil, errors.New("median heaps overlap")
	}
	return s, nil
}

// Snapshot serializes every mover's profile (checkpoint.Snapshotter).
func (pf *Profiler) Snapshot() ([]byte, error) {
	ids := pf.MoverIDs()
	size := wire.HeaderLen + wire.UvarintLen(uint64(len(ids)))
	for _, id := range ids {
		p := pf.profiles[id]
		size += wire.StringLen(id) + statsLen(p.Speed) + statsLen(p.Accel) + 1 + p.last.FramedSize()
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagProfiler)
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		p := pf.profiles[id]
		buf = wire.AppendString(buf, id)
		buf = appendStats(buf, p.Speed)
		buf = appendStats(buf, p.Accel)
		buf = wire.AppendBool(buf, p.hasLast)
		buf = p.last.AppendFramed(buf)
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
	// A profile is at least an ID's length prefix, two 27-byte accumulators,
	// the flag and a framed report.
	n := r.Count(1 + 2*27 + 1 + 1 + mobility.BinaryMinSize)
	profiles := make(map[string]*TrajectoryProfile, n)
	prev := ""
	for i := 0; i < n; i++ {
		id := r.Str()
		if i > 0 && id <= prev && !r.Failed() {
			return errMoverOrder("profiler", id)
		}
		prev = id
		speed, err := readStats(r)
		if err != nil {
			return errBadStats(id, "speed", err)
		}
		accel, err := readStats(r)
		if err != nil {
			return errBadStats(id, "acceleration", err)
		}
		p := &TrajectoryProfile{MoverID: id, Speed: speed, Accel: accel, hasLast: r.Bool()}
		p.last.ID = id // the report decoder keeps an equal ID string as it is
		mobility.ReadFramed(r, &p.last)
		profiles[id] = p
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("lowlevel: restore profiler: %w", err)
	}
	pf.profiles = profiles
	return nil
}

func errBadStats(id, attr string, err error) error {
	return fmt.Errorf("lowlevel: restore profiler: %s statistics of %s: %w", attr, id, err)
}

func errMoverOrder(op, id string) error {
	return fmt.Errorf("lowlevel: restore %s: %w: mover %q out of ascending order", op, wire.ErrMalformed, id)
}

// Area monitor snapshot layout:
//
//	tag 0xC4 | version | uvarint #movers | per mover, IDs ascending:
//	  string id | uvarint #regions | uvarint region index, ascending
//
// The region index and grid are functions of the configured regions, rebuilt
// identically on restart, so only the dynamic membership is captured.

// Snapshot serializes the monitor's inside-sets (checkpoint.Snapshotter).
func (m *AreaMonitor) Snapshot() ([]byte, error) {
	ids := make([]string, 0, len(m.inside))
	for id := range m.inside {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	size := wire.HeaderLen + wire.UvarintLen(uint64(len(ids)))
	maxSet := 0
	for _, id := range ids {
		set := m.inside[id]
		maxSet = max(maxSet, len(set))
		size += wire.StringLen(id) + wire.UvarintLen(uint64(len(set)))
		for ri := range set {
			size += wire.UvarintLen(uint64(ri))
		}
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagArea)
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	ris := make([]int, 0, maxSet)
	for _, id := range ids {
		ris = ris[:0]
		for ri := range m.inside[id] {
			ris = append(ris, ri)
		}
		sort.Ints(ris)
		buf = wire.AppendString(buf, id)
		buf = wire.AppendUvarint(buf, uint64(len(ris)))
		for _, ri := range ris {
			buf = wire.AppendUvarint(buf, uint64(ri))
		}
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
	inside := make(map[string]map[int]bool, n)
	prev := ""
	for i := 0; i < n; i++ {
		id := r.Str()
		if i > 0 && id <= prev && !r.Failed() {
			return errMoverOrder("area monitor", id)
		}
		prev = id
		k := r.Count(1)
		if k == 0 {
			continue // an empty set is not held
		}
		set := make(map[int]bool, k)
		last := -1
		for j := 0; j < k; j++ {
			v := r.Uvarint()
			if r.Failed() {
				break
			}
			if v >= uint64(len(m.regions)) {
				return errRegionIndex(v, len(m.regions))
			}
			if int(v) <= last {
				return errRegionOrder(id, v)
			}
			last = int(v)
			set[last] = true
		}
		inside[id] = set
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("lowlevel: restore area monitor: %w", err)
	}
	m.inside = inside
	return nil
}

func errRegionIndex(ri uint64, regions int) error {
	return fmt.Errorf("lowlevel: restore area monitor: region index %d out of range for %d regions", ri, regions)
}

func errRegionOrder(id string, ri uint64) error {
	return fmt.Errorf("lowlevel: restore area monitor: %w: region index %d of %q out of ascending order", wire.ErrMalformed, ri, id)
}
