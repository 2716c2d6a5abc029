package synopses

import (
	"fmt"
	"sort"

	"datacron/internal/mobility"
	"datacron/internal/wire"
)

// Snapshot layout (wire package encoding):
//
//	tag 0xC5 | version | varint in | varint dropped | varint critical |
//	uvarint #movers | per mover, IDs ascending:
//	  string id | flags byte | bytes last | uvarint #history { bytes report } |
//	  time stopSince | time slowSince | f64 meanSpeedKn | varint climbing |
//	  f64 groundAlt
//
// Reports are mobility's framed binary encoding. flags holds
// the booleans, one bit each in the order of the flag constants below.
const (
	flagHasLast = 1 << iota
	flagStopped
	flagStopEmitted
	flagSlow
	flagSlowEmitted
	flagAirborne
	flagWasAirborne
	flagsAll = flagWasAirborne<<1 - 1
)

// minMoverLen is the smallest encoding of one mover: an ID's length prefix,
// flags, a framed report, a history count, two times, two floats and a
// climbing regime.
const minMoverLen = 1 + 1 + 1 + mobility.BinaryMinSize + 1 + 2*2 + 2*8 + 1

func (st *moverState) flags() byte {
	var f byte
	for i, b := range [...]bool{st.hasLast, st.stopped, st.stopEmitted, st.slow, st.slowEmitted, st.airborne, st.wasAirborne} {
		if b {
			f |= 1 << i
		}
	}
	return f
}

func (st *moverState) encodedLen(id string) int {
	n := wire.StringLen(id) + 1 + st.last.FramedSize() + wire.UvarintLen(uint64(len(st.history)))
	for _, h := range st.history {
		n += h.FramedSize()
	}
	return n + wire.TimeLen(st.stopSince) + wire.TimeLen(st.slowSince) + 8 +
		wire.VarintLen(int64(st.climbing)) + 8
}

// Snapshot serializes all per-mover state and counters (checkpoint.Snapshotter).
func (g *Generator) Snapshot() ([]byte, error) {
	ids := make([]string, 0, len(g.states))
	for id := range g.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	size := wire.HeaderLen + wire.VarintLen(g.stats.In) + wire.VarintLen(g.stats.Dropped) +
		wire.VarintLen(g.stats.Critical) + wire.UvarintLen(uint64(len(ids)))
	for _, id := range ids {
		size += g.states[id].encodedLen(id)
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagSynopses)
	buf = wire.AppendVarint(buf, g.stats.In)
	buf = wire.AppendVarint(buf, g.stats.Dropped)
	buf = wire.AppendVarint(buf, g.stats.Critical)
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		st := g.states[id]
		buf = wire.AppendString(buf, id)
		buf = append(buf, st.flags())
		buf = st.last.AppendFramed(buf)
		buf = wire.AppendUvarint(buf, uint64(len(st.history)))
		for _, h := range st.history {
			buf = h.AppendFramed(buf)
		}
		buf = wire.AppendTime(buf, st.stopSince)
		buf = wire.AppendTime(buf, st.slowSince)
		buf = wire.AppendFloat64(buf, st.meanSpeedKn)
		buf = wire.AppendVarint(buf, int64(st.climbing))
		buf = wire.AppendFloat64(buf, st.groundAlt)
	}
	return buf, nil
}

// Restore replaces the generator's state with a snapshot taken by Snapshot.
// The configuration is not part of the snapshot: the restoring pipeline
// rebuilds the generator with the same Config it ran with. The blob is
// decoded and validated into fresh state; on error the generator is left as
// it was.
func (g *Generator) Restore(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(wire.TagSynopses); err != nil {
		return fmt.Errorf("synopses: restore: %w", err)
	}
	stats := Stats{In: r.Varint(), Dropped: r.Varint(), Critical: r.Varint()}
	if stats.In < 0 || stats.Dropped < 0 || stats.Critical < 0 {
		r.Fail()
	}
	n := r.Count(minMoverLen)
	states := make(map[string]*moverState, n)
	prev := ""
	for i := 0; i < n && !r.Failed(); i++ {
		id := r.Str()
		if i > 0 && id <= prev && !r.Failed() {
			return errMoverOrder(id)
		}
		prev = id
		st, err := g.readMover(r, id)
		if err != nil {
			return err
		}
		states[id] = st
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("synopses: restore: %w", err)
	}
	g.stats = stats
	if g.m != nil {
		// Re-anchor the delta mirror: metric state is monitoring-only and
		// deliberately outside the checkpoint, so only progress made after
		// this restore flows into the registry.
		g.m.last = g.stats
	}
	g.states = states
	return nil
}

// readMover decodes one mover's state. A history longer than the
// configured cap, or a climbing regime other than -1/0/+1, is state Process
// cannot produce and fails the restore.
func (g *Generator) readMover(r *wire.Reader, id string) (*moverState, error) {
	flags := r.Byte()
	if flags&^flagsAll != 0 {
		r.Fail()
	}
	st := &moverState{
		hasLast:     flags&flagHasLast != 0,
		stopped:     flags&flagStopped != 0,
		stopEmitted: flags&flagStopEmitted != 0,
		slow:        flags&flagSlow != 0,
		slowEmitted: flags&flagSlowEmitted != 0,
		airborne:    flags&flagAirborne != 0,
		wasAirborne: flags&flagWasAirborne != 0,
	}
	st.last.ID = id
	mobility.ReadFramed(r, &st.last)
	k := r.Count(1 + mobility.BinaryMinSize)
	if k > g.cfg.HistoryLen {
		return nil, errHistoryLen(id, k, g.cfg.HistoryLen)
	}
	if k > 0 {
		st.history = make([]mobility.Report, k)
		for j := range st.history {
			st.history[j].ID, st.history[j].Source = id, st.last.Source
			mobility.ReadFramed(r, &st.history[j])
		}
	}
	st.course = courseOfAll(st.history)
	st.stopSince, st.slowSince = r.Time(), r.Time()
	st.meanSpeedKn = r.Float64()
	climbing := r.Varint()
	st.groundAlt = r.Float64()
	if climbing < -1 || climbing > 1 {
		return nil, errClimbing(id, climbing)
	}
	st.climbing = int(climbing)
	return st, nil
}

func errMoverOrder(id string) error {
	return fmt.Errorf("synopses: restore: %w: mover %q out of ascending order", wire.ErrMalformed, id)
}

func errHistoryLen(id string, n, limit int) error {
	return fmt.Errorf("synopses: restore: mover %q holds %d history points, more than the configured %d", id, n, limit)
}

func errClimbing(id string, v int64) error {
	return fmt.Errorf("synopses: restore: mover %q has climbing regime %d, want -1, 0 or +1", id, v)
}
