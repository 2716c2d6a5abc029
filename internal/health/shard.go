package health

import (
	"fmt"

	"datacron/internal/obs"
	"datacron/internal/shard"
)

// shardChecker files a per-shard verdict for one worker of the sharded run
// loop, read from the plane's own progress rows rather than from metrics: a
// shard with inputs queued whose processed count has not moved for
// faultTicks consecutive ticks is stuck — its queue will fill and stall the
// merge, which applies outputs in submit order. A shard with nothing queued
// is idle, not stuck, however long it waits (sparse live input, or a key
// hash that routes nothing to it).
type shardChecker struct {
	shard    int
	progress func() []shard.Stats
	last     int64 // Processed at the previous reading
	primed   bool  // last holds a reading
	streak   int
}

// NewShardChecker builds a checker for one shard worker; register one per
// shard on the watchdog. progress returns the running plane's per-shard rows
// (shard.Plane.Stats), or none before the first run.
func NewShardChecker(i int, progress func() []shard.Stats) Checker {
	return &shardChecker{shard: i, progress: progress}
}

func (c *shardChecker) Name() string { return fmt.Sprintf("shard.%d", c.shard) }

func (c *shardChecker) Check(_, _ obs.Snapshot) Result {
	rows := c.progress()
	if c.shard >= len(rows) {
		return Result{Component: c.Name(), Status: Healthy, Detail: "no run in progress"}
	}
	s := rows[c.shard]
	// A stall is judged against the previous reading, so the first one only
	// sets the baseline.
	if c.primed && s.Queue > 0 && s.Processed == c.last {
		c.streak++
	} else {
		c.streak = 0
	}
	c.last, c.primed = s.Processed, true
	if c.streak >= faultTicks {
		return Result{
			Component: c.Name(),
			Status:    Unhealthy,
			Detail:    fmt.Sprintf("shard %d processed 0 records over %d tick(s) with %d queued", c.shard, c.streak, s.Queue),
		}
	}
	return Result{Component: c.Name(), Status: Healthy, Detail: fmt.Sprintf("%d record(s) processed, %d queued", s.Processed, s.Queue)}
}
