package checkpoint

import "datacron/internal/obs"

// cpMetrics caches the checkpointer's metric handles. The capture stamp
// reads the registry's injected clock — the checkpoint package is inside
// the replayable scope, so it never touches the wall clock directly.
type cpMetrics struct {
	clock       obs.Clock
	captures    *obs.Counter
	lastCapture *obs.Gauge
	restores    *obs.Counter
}

// Instrument attaches checkpoint metrics: "checkpoint.captures",
// "checkpoint.last_capture.unixsec" (the health watchdog's checkpoint-age
// signal) and "checkpoint.restores". Capture and restore timings and
// checkpoint sizes have no metric reader and are not recorded; the
// benchmark measures them around the calls. A nil registry detaches
// instrumentation.
func (c *Checkpointer) Instrument(reg *obs.Registry) {
	if reg == nil {
		c.m = nil
		return
	}
	c.m = &cpMetrics{
		clock:       reg.Clock(),
		captures:    reg.Counter("checkpoint.captures"),
		lastCapture: reg.Gauge("checkpoint.last_capture.unixsec"),
		restores:    reg.Counter("checkpoint.restores"),
	}
}

func (m *cpMetrics) recordCapture() {
	m.captures.Inc()
	m.lastCapture.Set(float64(m.clock.Now().Unix()))
}
