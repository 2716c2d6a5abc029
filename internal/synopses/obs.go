package synopses

import "datacron/internal/obs"

// genMetrics mirrors the generator's Stats into a registry. The mirror is
// delta-based: each sync pushes only the increments since the previous one,
// so a Registry.Reset (e.g. after crash recovery) leaves subsequent deltas
// correct instead of re-counting history.
type genMetrics struct {
	in       *obs.Counter
	dropped  *obs.Counter
	critical *obs.Counter
	last     Stats
}

// Instrument mirrors the generator's counters into reg — "synopses.in",
// "synopses.dropped", "synopses.critical" — after every Process call; a
// reader derives the compression ratio from them (Stats.CompressionRatio).
// A nil registry detaches instrumentation.
func (g *Generator) Instrument(reg *obs.Registry) {
	if reg == nil {
		g.m = nil
		return
	}
	g.m = &genMetrics{
		in:       reg.Counter("synopses.in"),
		dropped:  reg.Counter("synopses.dropped"),
		critical: reg.Counter("synopses.critical"),
		last:     g.stats, // only progress made after attaching is mirrored
	}
}

func (m *genMetrics) sync(s Stats) {
	m.in.Add(s.In - m.last.In)
	m.dropped.Add(s.Dropped - m.last.Dropped)
	m.critical.Add(s.Critical - m.last.Critical)
	m.last = s
}
