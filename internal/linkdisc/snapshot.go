package linkdisc

import (
	"fmt"
	"sort"

	"datacron/internal/wire"
)

// Snapshot layout (wire package encoding):
//
//	tag 0xC6 | version | varint entities | varint maskSkips |
//	varint comparisons | varint links | uvarint #cells | per non-empty cell,
//	ascending: uvarint cell | uvarint #points { string id | f64 lon |
//	f64 lat | time }
//
// The grid, cell index and masks are functions of the static entities and
// configuration — rebuilt at construction, the masks on first probe — so
// only the temporal book-keeping buffers and the counters are captured.

// minPointLen is the smallest encoding of one recent point: an ID's length
// prefix, two coordinates and a two-byte time.
const minPointLen = 1 + 2*8 + 2

func (d *Discoverer) recentCells() []int {
	cells := make([]int, 0, len(d.recent))
	for cell, rps := range d.recent {
		if len(rps) > 0 {
			cells = append(cells, cell)
		}
	}
	sort.Ints(cells)
	return cells
}

// Snapshot serializes the discoverer's streaming state (checkpoint.Snapshotter).
func (d *Discoverer) Snapshot() ([]byte, error) {
	cells := d.recentCells()
	size := wire.HeaderLen + wire.VarintLen(d.stats.Entities) + wire.VarintLen(d.stats.MaskSkips) +
		wire.VarintLen(d.stats.Comparisons) + wire.VarintLen(d.stats.Links) + wire.UvarintLen(uint64(len(cells)))
	for _, cell := range cells {
		rps := d.recent[cell]
		size += wire.UvarintLen(uint64(cell)) + wire.UvarintLen(uint64(len(rps)))
		for _, rp := range rps {
			size += wire.StringLen(rp.id) + 2*8 + wire.TimeLen(rp.time)
		}
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagLinkdisc)
	buf = wire.AppendVarint(buf, d.stats.Entities)
	buf = wire.AppendVarint(buf, d.stats.MaskSkips)
	buf = wire.AppendVarint(buf, d.stats.Comparisons)
	buf = wire.AppendVarint(buf, d.stats.Links)
	buf = wire.AppendUvarint(buf, uint64(len(cells)))
	for _, cell := range cells {
		rps := d.recent[cell]
		buf = wire.AppendUvarint(buf, uint64(cell))
		buf = wire.AppendUvarint(buf, uint64(len(rps)))
		for _, rp := range rps {
			buf = wire.AppendString(buf, rp.id)
			buf = wire.AppendFloat64(buf, rp.pos.Lon)
			buf = wire.AppendFloat64(buf, rp.pos.Lat)
			buf = wire.AppendTime(buf, rp.time)
		}
	}
	return buf, nil
}

// Restore replaces the discoverer's streaming state with a snapshot taken by
// Snapshot against a discoverer built over the same statics and config. On
// error the discoverer is left as it was.
func (d *Discoverer) Restore(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(wire.TagLinkdisc); err != nil {
		return fmt.Errorf("linkdisc: restore: %w", err)
	}
	stats := Stats{Entities: r.Varint(), MaskSkips: r.Varint(), Comparisons: r.Varint(), Links: r.Varint()}
	n := r.Count(1 + 1 + minPointLen) // a cell, a count and one point
	recent := make(map[int][]recentPoint, n)
	last := -1
	for i := 0; i < n && !r.Failed(); i++ {
		cell := r.Uvarint()
		if !r.Failed() && (cell >= uint64(d.grid.NumCells()) || int(cell) <= last) {
			return errCell(cell, d.grid.NumCells())
		}
		last = int(cell)
		rps := make([]recentPoint, r.Count(minPointLen))
		for j := range rps {
			rps[j].id = r.Str()
			rps[j].pos.Lon, rps[j].pos.Lat = r.Float64(), r.Float64()
			rps[j].time = r.Time()
		}
		if len(rps) > 0 {
			recent[last] = rps
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("linkdisc: restore: %w", err)
	}
	d.stats = stats
	if d.m != nil {
		// Re-anchor the delta mirror; metric state stays outside the
		// checkpoint so only post-restore progress reaches the registry.
		d.m.last = d.stats
	}
	d.recent = recent
	return nil
}

func errCell(cell uint64, cells int) error {
	return fmt.Errorf("linkdisc: restore: %w: cell %d out of range for %d cells or out of ascending order", wire.ErrMalformed, cell, cells)
}
