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
//	uvarint #movers | per mover, IDs ascending: string id | track
//	track = flags byte | bytes last | uvarint #history { history entry } |
//	  time stopSince | time slowSince | f64 meanSpeedKn | varint climbing |
//	  f64 groundAlt
//	history entry = time | f64 x | f64 y
//
// last is mobility's framed binary report; a history entry is a retained
// point's time and its cached term of the mean course, raw bits. flags
// holds the booleans, one bit each in the order of the flag constants
// below. A track record is what the shard workers' mover table stores per
// mover too (AppendTrack, ReadTrack).
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

// MinTrackLen is the smallest encoding of one track record: flags, a framed
// report, a history count, two times, two floats and a climbing regime.
const MinTrackLen = 1 + 1 + mobility.BinaryMinSize + 1 + 2*2 + 2*8 + 1

// minEntryLen is the smallest encoding of one history entry.
const minEntryLen = 1 + 1 + 2*8

func (st *Track) flags() byte {
	var f byte
	for i, b := range [...]bool{st.hasLast, st.stopped, st.stopEmitted, st.slow, st.slowEmitted, st.airborne, st.wasAirborne} {
		if b {
			f |= 1 << i
		}
	}
	return f
}

// TrackLen is the exact size of st's track record.
func (st *Track) TrackLen() int {
	n := 1 + st.last.FramedSize() + wire.UvarintLen(uint64(len(st.history)))
	for _, h := range st.history {
		n += wire.TimeLen(h.t) + 2*8
	}
	return n + wire.TimeLen(st.stopSince) + wire.TimeLen(st.slowSince) + 8 +
		wire.VarintLen(int64(st.climbing)) + 8
}

// AppendTrack appends st's track record to buf.
func (st *Track) AppendTrack(buf []byte) []byte {
	buf = append(buf, st.flags())
	buf = st.last.AppendFramed(buf)
	buf = wire.AppendUvarint(buf, uint64(len(st.history)))
	for _, h := range st.history {
		buf = wire.AppendTime(buf, h.t)
		buf = wire.AppendFloat64(buf, h.c.x)
		buf = wire.AppendFloat64(buf, h.c.y)
	}
	buf = wire.AppendTime(buf, st.stopSince)
	buf = wire.AppendTime(buf, st.slowSince)
	buf = wire.AppendFloat64(buf, st.meanSpeedKn)
	buf = wire.AppendVarint(buf, int64(st.climbing))
	return wire.AppendFloat64(buf, st.groundAlt)
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
		size += wire.StringLen(id) + g.states[id].TrackLen()
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagSynopses)
	buf = wire.AppendVarint(buf, g.stats.In)
	buf = wire.AppendVarint(buf, g.stats.Dropped)
	buf = wire.AppendVarint(buf, g.stats.Critical)
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = wire.AppendString(buf, id)
		buf = g.states[id].AppendTrack(buf)
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
	n := r.Count(1 + MinTrackLen)
	states := make(map[string]*Track, n)
	prev := ""
	for i := 0; i < n && !r.Failed(); i++ {
		id := r.Str()
		if i > 0 && id <= prev && !r.Failed() {
			return errMoverOrder(id)
		}
		prev = id
		st, err := g.ReadTrack(r, id, "")
		if err != nil {
			return restoreErr(err)
		}
		states[id] = &st
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("synopses: restore: %w", err)
	}
	g.SetStats(stats)
	g.states = states
	return nil
}

// ReadTrack decodes a track record of mover id; the last report reuses id
// and, when equal, source as its strings. A history longer than the
// configured cap, or a climbing regime other than -1/0/+1, is state the
// generator cannot produce and fails the read.
func (g *Generator) ReadTrack(r *wire.Reader, id, source string) (Track, error) {
	flags := r.Byte()
	if flags&^flagsAll != 0 {
		r.Fail()
	}
	st := Track{
		hasLast:     flags&flagHasLast != 0,
		stopped:     flags&flagStopped != 0,
		stopEmitted: flags&flagStopEmitted != 0,
		slow:        flags&flagSlow != 0,
		slowEmitted: flags&flagSlowEmitted != 0,
		airborne:    flags&flagAirborne != 0,
		wasAirborne: flags&flagWasAirborne != 0,
	}
	st.last.ID, st.last.Source = id, source
	mobility.ReadFramed(r, &st.last)
	k := r.Count(minEntryLen)
	if k > g.cfg.HistoryLen {
		return Track{}, errHistoryLen(id, k, g.cfg.HistoryLen)
	}
	if k > 0 {
		st.history = make([]courseEntry, k)
		for j := range st.history {
			h := &st.history[j]
			h.t, h.c.x, h.c.y = r.Time(), r.Float64(), r.Float64()
		}
	}
	st.stopSince, st.slowSince = r.Time(), r.Time()
	st.meanSpeedKn = r.Float64()
	climbing := r.Varint()
	st.groundAlt = r.Float64()
	if climbing < -1 || climbing > 1 {
		return Track{}, errClimbing(id, climbing)
	}
	st.climbing = int(climbing)
	return st, nil
}

func restoreErr(err error) error {
	return fmt.Errorf("synopses: restore: %w", err)
}

func errMoverOrder(id string) error {
	return fmt.Errorf("synopses: restore: %w: mover %q out of ascending order", wire.ErrMalformed, id)
}

func errHistoryLen(id string, n, limit int) error {
	return fmt.Errorf("mover %q holds %d history points, more than the configured %d", id, n, limit)
}

func errClimbing(id string, v int64) error {
	return fmt.Errorf("mover %q has climbing regime %d, want -1, 0 or +1", id, v)
}
