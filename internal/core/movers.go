package core

import (
	"fmt"
	"sort"

	"datacron/internal/flp"
	"datacron/internal/geo"
	"datacron/internal/lowlevel"
	"datacron/internal/synopses"
	"datacron/internal/va"
	"datacron/internal/wire"
)

// mover is everything a shard worker keeps about one mover ID, so a record
// costs one lookup for every per-trajectory operator. id and source are
// interned: every report the worker decodes for the mover carries them.
type mover struct {
	id, source string
	track      synopses.Track
	// pred is nil until the mover's first valid report; area and prof are
	// stepped from that report on, so they are empty while pred is nil.
	pred *flp.RMFStar
	area lowlevel.Regions
	prof lowlevel.TrajectoryProfile
	// future is the last prediction, in a buffer reused from report to
	// report; slot is the mover's Dashboard entry, fetched on its first
	// valid report after the table is built or restored. Neither is part of
	// a checkpoint.
	future []geo.Point
	slot   *va.Slot
}

// moverOf returns the mover of a decoded report's ID and Source bytes,
// adding it on the first report; only a new mover, or a changed source,
// materialises a string.
func (w *shardWorker) moverOf(id, src []byte) *mover {
	m := w.movers[string(id)]
	if m == nil {
		m = &mover{id: string(id)}
		w.movers[m.id] = m
	}
	if m.source != string(src) {
		m.source = string(src)
	}
	return m
}

// Mover table snapshot layout (wire package encoding), one blob per worker
// under "shard/<i>/movers":
//
//	tag 0xCC | version | varint in | varint dropped | varint critical |
//	uvarint #movers | per mover, IDs ascending:
//	  string id | string source | track | bool tracked |
//	  if tracked: regions | profile | rmf*
//
// in/dropped/critical are the synopses generator's counters; track,
// regions, profile and rmf* the operators' per-mover records (synopses,
// lowlevel and flp). Each record is bounded by configuration — the
// history cap, the region count, five P² markers per accumulator, the
// RMF* window — so a mover costs its ID and source plus a constant
// however long the run. A mover is tracked once it has had a valid report.

func (w *shardWorker) sortedMovers() []*mover {
	ms := make([]*mover, 0, len(w.movers))
	for _, m := range w.movers {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	return ms
}

// moverLen is the exact size of m's record in the mover table.
func moverLen(m *mover) int {
	n := wire.StringLen(m.id) + wire.StringLen(m.source) + m.track.TrackLen() + 1
	if m.pred != nil {
		n += m.area.RegionsLen() + m.prof.ProfileLen() + m.pred.StateLen()
	}
	return n
}

func (w *shardWorker) snapshotMovers() []byte {
	ms := w.sortedMovers()
	stats := w.sg.Stats()
	size := wire.HeaderLen + wire.VarintLen(stats.In) + wire.VarintLen(stats.Dropped) +
		wire.VarintLen(stats.Critical) + wire.UvarintLen(uint64(len(ms)))
	for _, m := range ms {
		size += moverLen(m)
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagMovers)
	buf = wire.AppendVarint(buf, stats.In)
	buf = wire.AppendVarint(buf, stats.Dropped)
	buf = wire.AppendVarint(buf, stats.Critical)
	buf = wire.AppendUvarint(buf, uint64(len(ms)))
	for _, m := range ms {
		buf = wire.AppendString(buf, m.id)
		buf = wire.AppendString(buf, m.source)
		buf = m.track.AppendTrack(buf)
		buf = wire.AppendBool(buf, m.pred != nil)
		if m.pred != nil {
			buf = m.area.AppendRegions(buf)
			buf = m.prof.AppendProfile(buf)
			buf = m.pred.AppendState(buf)
		}
	}
	return buf
}

// restoreMovers replaces the mover table and the synopses counters with a
// blob taken by snapshotMovers on a worker of the same configuration,
// decoded and validated into a fresh table first: on error the worker is
// left as it was.
func (w *shardWorker) restoreMovers(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(wire.TagMovers); err != nil {
		return moversErr(err)
	}
	stats := synopses.Stats{In: r.Varint(), Dropped: r.Varint(), Critical: r.Varint()}
	if stats.In < 0 || stats.Dropped < 0 || stats.Critical < 0 {
		r.Fail()
	}
	// A mover is at least two length prefixes, a track and the tracked flag.
	n := r.Count(2 + synopses.MinTrackLen + 1)
	movers := make(map[string]*mover, n)
	prev := ""
	for i := 0; i < n && !r.Failed(); i++ {
		m, err := w.readMover(r)
		if err != nil {
			return moversErr(err)
		}
		if i > 0 && m.id <= prev && !r.Failed() {
			return moverOrderErr(m.id)
		}
		prev = m.id
		movers[m.id] = m
	}
	if err := r.Err(); err != nil {
		return moversErr(err)
	}
	w.sg.SetStats(stats)
	w.movers = movers
	return nil
}

func (w *shardWorker) readMover(r *wire.Reader) (*mover, error) {
	m := &mover{id: r.Str(), source: r.Str()}
	var err error
	if m.track, err = w.sg.ReadTrack(r, m.id, m.source); err != nil {
		return nil, err
	}
	if !r.Bool() {
		return m, nil
	}
	if m.area, err = w.areaMon.ReadRegions(r, m.id); err != nil {
		return nil, err
	}
	if m.prof, err = lowlevel.ReadProfile(r, m.id); err != nil {
		return nil, err
	}
	if m.pred, err = flp.ReadRMFStar(r, w.sample); err != nil {
		return nil, predictorErr(m.id, err)
	}
	return m, nil
}

// Cold-path error constructors, kept out of the loop bodies so hotalloc
// sees them allocation-free.
func predictorErr(id string, err error) error {
	return fmt.Errorf("restore predictor %s: %w", id, err)
}

func moversErr(err error) error {
	return fmt.Errorf("core: restore movers: %w", err)
}

func moverOrderErr(id string) error {
	return fmt.Errorf("core: restore movers: %w: mover %q out of ascending order", wire.ErrMalformed, id)
}

// profilerOf gathers the workers' trajectory profiles into one Profiler.
func profilerOf(workers []*shardWorker) *lowlevel.Profiler {
	pf := lowlevel.NewProfiler()
	for _, w := range workers {
		for _, m := range w.movers {
			if m.pred != nil {
				pf.Add(&m.prof)
			}
		}
	}
	return pf
}
