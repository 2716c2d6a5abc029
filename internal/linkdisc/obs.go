package linkdisc

import "datacron/internal/obs"

// discMetrics mirrors the discoverer's Stats into a registry, delta-based
// so a Registry.Reset after crash recovery leaves later syncs correct.
type discMetrics struct {
	entities  *obs.Counter
	maskSkips *obs.Counter
	last      Stats
}

// Instrument mirrors two of the discoverer's counters into reg —
// "linkdisc.entities" and "linkdisc.mask_skips" — after every ProcessPoint;
// the mask hit rate is mask_skips over entities. Comparisons and links are
// in Stats only. A nil registry detaches.
func (d *Discoverer) Instrument(reg *obs.Registry) {
	if reg == nil {
		d.m = nil
		return
	}
	d.m = &discMetrics{
		entities:  reg.Counter("linkdisc.entities"),
		maskSkips: reg.Counter("linkdisc.mask_skips"),
		last:      d.stats,
	}
}

func (m *discMetrics) sync(s Stats) {
	m.entities.Add(s.Entities - m.last.Entities)
	m.maskSkips.Add(s.MaskSkips - m.last.MaskSkips)
	m.last = s
}
