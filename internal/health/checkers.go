package health

import (
	"fmt"
	"strings"
	"time"

	"datacron/internal/obs"
)

// watermarkChecker flags operators whose event-time watermark stops
// advancing while their input keeps arriving. It pairs every
// "<base>.watermark.unixsec" gauge with the progress counter
// "<base>.records" (the core pipeline's "core.records"): input moving with
// the watermark flat for faultTicks consecutive ticks is a stall —
// downstream consumers starve even though data flows in.
type watermarkChecker struct {
	streak map[string]int
}

func (c *watermarkChecker) Name() string { return "watermark" }

func (c *watermarkChecker) Check(prev, cur obs.Snapshot) Result {
	worst := Result{Component: "watermark", Status: Healthy, Detail: "watermarks advancing"}
	for _, g := range cur.Gauges {
		base, ok := strings.CutSuffix(g.Name, ".watermark.unixsec")
		if !ok {
			continue
		}
		progress := cur.Counter(base+".records") - prev.Counter(base+".records")
		prevWM, _ := prev.Gauge(g.Name)
		if progress > 0 && g.Value <= prevWM {
			c.streak[g.Name]++
		} else {
			delete(c.streak, g.Name)
		}
		if n := c.streak[g.Name]; n >= faultTicks {
			worst = Result{
				Component: "watermark",
				Status:    Unhealthy,
				Detail:    fmt.Sprintf("%s watermark stalled for %d tick(s) while input advanced", base, n),
			}
		}
	}
	return worst
}

// lagChecker flags consumer groups whose lag grows tick over tick. Each
// "msg.lag.<group>/<topic>" gauge is tracked independently; lag that grew
// since the previous tick for faultTicks consecutive ticks means the
// consumer is falling behind its producer.
type lagChecker struct {
	streak map[string]int
}

func (c *lagChecker) Name() string { return "lag" }

func (c *lagChecker) Check(prev, cur obs.Snapshot) Result {
	worst := Result{Component: "lag", Status: Healthy, Detail: "consumer lag stable"}
	for _, g := range cur.Gauges {
		if !strings.HasPrefix(g.Name, "msg.lag.") {
			continue
		}
		prevLag, _ := prev.Gauge(g.Name)
		if g.Value > prevLag {
			c.streak[g.Name]++
		} else {
			delete(c.streak, g.Name)
		}
		if n := c.streak[g.Name]; n >= faultTicks {
			worst = Result{
				Component: "lag",
				Status:    Unhealthy,
				Detail: fmt.Sprintf("%s grew to %.0f over %d tick(s)",
					strings.TrimPrefix(g.Name, "msg.lag."), g.Value, n),
			}
		}
	}
	return worst
}

// checkpointChecker flags a checkpointer that has not captured within
// checkpointSlack times its configured interval. The age is derived from
// the "checkpoint.last_capture.unixsec" gauge against the snapshot's own
// timestamp, so a ManualClock drives it like everything else. With no
// interval configured, or before the first capture is recorded, the
// component is healthy.
type checkpointChecker struct {
	interval time.Duration
}

func (c *checkpointChecker) Name() string { return "checkpoint" }

func (c *checkpointChecker) Check(_, cur obs.Snapshot) Result {
	if c.interval <= 0 {
		return Result{Component: "checkpoint", Status: Healthy, Detail: "checkpointing not configured"}
	}
	last, ok := cur.Gauge("checkpoint.last_capture.unixsec")
	if !ok {
		return Result{Component: "checkpoint", Status: Healthy, Detail: "no capture recorded yet"}
	}
	age := float64(cur.At.Unix()) - last
	limit := c.interval.Seconds() * checkpointSlack
	if age > limit {
		return Result{
			Component: "checkpoint",
			Status:    Unhealthy,
			Detail:    fmt.Sprintf("last capture %.0fs ago exceeds limit %.0fs", age, limit),
		}
	}
	return Result{Component: "checkpoint", Status: Healthy, Detail: fmt.Sprintf("last capture %.0fs ago", age)}
}
