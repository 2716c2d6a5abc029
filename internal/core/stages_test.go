package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/gen"
)

// stepClock advances a fixed step on every read, from any goroutine, and
// remembers the first and the last read the run loop's stage boundaries
// made: RunWithRecovery's own reads and merge.lap's.
type stepClock struct {
	step        time.Duration
	n           atomic.Int64
	mu          sync.Mutex
	first, last time.Time
}

func (c *stepClock) Now() time.Time {
	now := gen.DefaultStart.Add(time.Duration(c.n.Add(1)) * c.step)
	var pc [1]uintptr
	runtime.Callers(2, pc[:])
	frame, _ := runtime.CallersFrames(pc[:]).Next()
	switch frame.Function {
	case "datacron/internal/core.(*Pipeline).RunWithRecovery", "datacron/internal/core.(*merge).lap":
		c.mu.Lock()
		if c.first.IsZero() {
			c.first = now
		}
		c.last = now
		c.mu.Unlock()
	}
	return now
}

// TestShardStageTableAccountsForRun: on the manoeuvre-like run, which has
// link discovery, CER and checkpoints, every stage of the run loop takes
// time, the stage rows add up exactly to the time between the loop's first
// and last boundary, each worker is busy for no longer than that, and the
// merge's wait for the workers falls inside its drain stage.
func TestShardStageTableAccountsForRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := &stepClock{step: time.Microsecond}
			p := manoeuvrePipelineFor(t, shards, 35*time.Minute, WithClock(clk))
			cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr, EveryRecords: 1000}); err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			rows := map[string]int64{}
			var sum int64
			for _, stage := range []string{"poll", "drain", "link", "render", "cer", "publish", "commit", "checkpoint", "idle"} {
				rows[stage] = st.Metrics.Counter("core.stage." + stage + ".ns")
				if rows[stage] <= 0 {
					t.Errorf("stage %s took %d ns, want > 0", stage, rows[stage])
				}
				sum += rows[stage]
			}
			clk.mu.Lock()
			span := int64(clk.last.Sub(clk.first))
			clk.mu.Unlock()
			if sum != span {
				t.Errorf("stage rows add up to %d ns, the loop's boundaries are %d ns apart", sum, span)
			}
			if len(st.Shards) != shards {
				t.Fatalf("%d shard rows, want %d", len(st.Shards), shards)
			}
			var wait int64
			for _, sh := range st.Shards {
				if sh.BusyNS <= 0 || sh.BusyNS > span {
					t.Errorf("shard %d busy %d ns, want in (0, %d]", sh.Shard, sh.BusyNS, span)
				}
				wait += sh.WaitNS
			}
			if wait > rows["drain"] {
				t.Errorf("merge waited %d ns on the workers, longer than its %d ns drain stage", wait, rows["drain"])
			}
		})
	}
}
