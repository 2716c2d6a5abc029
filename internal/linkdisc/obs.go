package linkdisc

import "datacron/internal/obs"

// discMetrics mirrors the discoverer's Stats into a registry, delta-based
// so a Registry.Reset after crash recovery leaves later syncs correct.
type discMetrics struct {
	entities    *obs.Counter
	maskSkips   *obs.Counter
	comparisons *obs.Counter
	links       *obs.Counter
	last        Stats
}

// Instrument mirrors the discoverer's counters into reg —
// "linkdisc.entities", "linkdisc.mask_skips", "linkdisc.comparisons",
// "linkdisc.links" — after every ProcessPoint; the mask hit rate is
// mask_skips over entities. A nil registry detaches.
func (d *Discoverer) Instrument(reg *obs.Registry) {
	if reg == nil {
		d.m = nil
		return
	}
	d.m = &discMetrics{
		entities:    reg.Counter("linkdisc.entities"),
		maskSkips:   reg.Counter("linkdisc.mask_skips"),
		comparisons: reg.Counter("linkdisc.comparisons"),
		links:       reg.Counter("linkdisc.links"),
		last:        d.stats,
	}
}

func (m *discMetrics) sync(s Stats) {
	m.entities.Add(s.Entities - m.last.Entities)
	m.maskSkips.Add(s.MaskSkips - m.last.MaskSkips)
	m.comparisons.Add(s.Comparisons - m.last.Comparisons)
	m.links.Add(s.Links - m.last.Links)
	m.last = s
}
