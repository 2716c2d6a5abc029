package health

import (
	"fmt"

	"datacron/internal/obs"
)

// shardChecker files a per-shard verdict for one worker of the sharded run
// loop. It pairs the worker's "shard.<i>.records" progress counter with
// the pipeline-wide "core.records": a shard that processes nothing for
// faultTicks consecutive ticks while the pipeline as a whole advances is
// stuck — its queue will fill and stall the coordinator's merge. A shard
// that has never received a record is idle, not stuck (with few movers,
// the key hash may simply route nothing to it).
type shardChecker struct {
	shard  int
	streak int
}

// NewShardChecker builds a checker for one shard worker; register one per
// shard on the watchdog.
func NewShardChecker(shard int) Checker {
	return &shardChecker{shard: shard}
}

func (c *shardChecker) Name() string { return fmt.Sprintf("shard.%d", c.shard) }

func (c *shardChecker) Check(prev, cur obs.Snapshot) Result {
	name := fmt.Sprintf("shard.%d.records", c.shard)
	if cur.Counter(name) == 0 {
		return Result{Component: c.Name(), Status: Healthy, Detail: "no records routed to this shard"}
	}
	mine := cur.Counter(name) - prev.Counter(name)
	total := cur.Counter("core.records") - prev.Counter("core.records")
	if total > 0 && mine == 0 {
		c.streak++
	} else {
		c.streak = 0
	}
	if c.streak >= faultTicks {
		return Result{
			Component: c.Name(),
			Status:    Unhealthy,
			Detail:    fmt.Sprintf("shard %d processed 0 records over %d tick(s) while the pipeline advanced", c.shard, c.streak),
		}
	}
	return Result{Component: c.Name(), Status: Healthy, Detail: fmt.Sprintf("processed %d record(s) this tick", mine)}
}
