package health

import (
	"context"
	"strings"
	"testing"
	"time"

	"datacron/internal/obs"
	"datacron/internal/shard"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func setup() (*obs.ManualClock, *obs.Registry, *Watchdog) {
	clk := obs.NewManualClock(epoch)
	reg := obs.NewRegistry(clk)
	return clk, reg, NewWatchdog(reg)
}

func result(t *testing.T, w *Watchdog, component string) Result {
	t.Helper()
	for _, r := range w.Report() {
		if r.Component == component {
			return r
		}
	}
	t.Fatalf("no verdict for component %q in %+v", component, w.Report())
	return Result{}
}

func TestWatermarkStallFlipsInOneTick(t *testing.T) {
	clk, reg, w := setup()
	records := reg.Counter("core.records")
	wm := reg.Gauge("core.watermark.unixsec")

	records.Add(100)
	wm.Set(float64(epoch.Unix()))
	w.Tick() // first tick: baseline, healthy
	if !w.Ready() || !w.Live() {
		t.Fatalf("baseline tick must be ready+live: %+v", w.Report())
	}

	// Normal progress: input and watermark both advance.
	clk.Advance(time.Second)
	records.Add(100)
	wm.Set(float64(epoch.Unix()) + 1)
	w.Tick()
	if !w.Ready() {
		t.Fatalf("advancing watermark must stay ready: %+v", w.Report())
	}

	// Fault: input keeps arriving, watermark frozen. ONE tick must flip it.
	clk.Advance(time.Second)
	records.Add(100)
	w.Tick()
	if w.Ready() || w.Live() {
		t.Fatalf("stalled watermark must cost ready and live within one tick: %+v", w.Report())
	}
	r := result(t, w, "watermark")
	if r.Status != Unhealthy || !strings.Contains(r.Detail, "core") {
		t.Fatalf("watermark verdict = %+v", r)
	}
	if v, ok := reg.Snapshot().Gauge("health.watermark.status"); !ok || v != float64(Unhealthy) {
		t.Fatalf("health.watermark.status gauge = %v, %v", v, ok)
	}

	// Recovery: watermark advances again.
	clk.Advance(time.Second)
	records.Add(100)
	wm.Set(float64(epoch.Unix()) + 3)
	w.Tick()
	if !w.Ready() || !w.Live() {
		t.Fatalf("recovered watermark must restore ready+live: %+v", w.Report())
	}
}

func TestIdleWatermarkIsNotAStall(t *testing.T) {
	clk, reg, w := setup()
	reg.Counter("core.records").Add(10)
	reg.Gauge("core.watermark.unixsec").Set(float64(epoch.Unix()))
	w.Tick()
	// No new input: a flat watermark is idleness, not a stall.
	clk.Advance(time.Minute)
	w.Tick()
	if !w.Ready() {
		t.Fatalf("idle operator must stay ready: %+v", w.Report())
	}
}

func TestLagGrowthFlipsInOneTick(t *testing.T) {
	clk, reg, w := setup()
	lag := reg.Gauge("msg.lag.realtime/surveillance.raw")
	lag.Set(5)
	w.Tick()

	clk.Advance(time.Second)
	lag.Set(50)
	w.Tick()
	if w.Ready() || w.Live() {
		t.Fatalf("growing lag must cost ready and live within one tick: %+v", w.Report())
	}
	r := result(t, w, "lag")
	if r.Status != Unhealthy || !strings.Contains(r.Detail, "realtime/surveillance.raw") {
		t.Fatalf("lag verdict = %+v", r)
	}

	// Lag draining restores health.
	clk.Advance(time.Second)
	lag.Set(10)
	w.Tick()
	if !w.Ready() {
		t.Fatalf("draining lag must restore ready: %+v", w.Report())
	}
}

func TestCheckpointAge(t *testing.T) {
	clk, reg, w := setup()
	w.SetCheckpointInterval(10 * time.Second)

	w.Tick()
	if r := result(t, w, "checkpoint"); r.Status != Healthy {
		t.Fatalf("no capture recorded yet must be healthy: %+v", r)
	}

	reg.Gauge("checkpoint.last_capture.unixsec").Set(float64(epoch.Unix()))
	clk.Advance(15 * time.Second) // inside 2× slack
	w.Tick()
	if r := result(t, w, "checkpoint"); r.Status != Healthy {
		t.Fatalf("capture inside slack must be healthy: %+v", r)
	}

	clk.Advance(10 * time.Second) // 25s age > 20s limit
	w.Tick()
	if r := result(t, w, "checkpoint"); r.Status != Unhealthy {
		t.Fatalf("stale capture must be unhealthy: %+v", r)
	}
	if w.Live() {
		t.Fatal("stale checkpoint must cost liveness")
	}

	reg.Gauge("checkpoint.last_capture.unixsec").Set(float64(clk.Now().Unix()))
	w.Tick()
	if !w.Live() || !w.Ready() {
		t.Fatalf("fresh capture must restore health: %+v", w.Report())
	}
}

func TestCustomCheckerAndNilSafety(t *testing.T) {
	_, _, w := setup()
	w.Register(checkerFunc(func(prev, cur obs.Snapshot) Result {
		return Result{Component: "custom", Status: Degraded, Detail: "always degraded"}
	}))
	w.Tick()
	if w.Ready() {
		t.Fatal("custom degraded checker must cost readiness")
	}
	if r := result(t, w, "custom"); r.Status != Degraded {
		t.Fatalf("custom verdict = %+v", r)
	}

	var nilW *Watchdog
	nilW.Tick()
	nilW.SetCheckpointInterval(time.Second)
	if !nilW.Ready() || !nilW.Live() || nilW.Report() != nil || nilW.Ticks() != 0 {
		t.Fatal("nil watchdog must be a benign no-op")
	}
}

func TestRunTicksAndStops(t *testing.T) {
	_, _, w := setup()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		w.Run(ctx, time.Millisecond)
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for w.Ticks() < 3 {
		select {
		case <-deadline:
			t.Fatal("watchdog did not tick")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// checkerFunc adapts a function to the Checker interface for tests.
type checkerFunc func(prev, cur obs.Snapshot) Result

func (f checkerFunc) Name() string                   { return "custom" }
func (f checkerFunc) Check(p, c obs.Snapshot) Result { return f(p, c) }

// planeRows is a settable stand-in for a running plane's Stats.
type planeRows []shard.Stats

func (r *planeRows) stats() []shard.Stats { return *r }

func (r *planeRows) set(i int, processed int64, queue int) {
	(*r)[i] = shard.Stats{Shard: i, Processed: processed, Queue: queue}
}

func TestShardCheckerStallIdleProgress(t *testing.T) {
	clk, _, w := setup()
	rows := make(planeRows, 2)
	w.Register(NewShardChecker(0, rows.stats))
	w.Register(NewShardChecker(1, rows.stats))

	// First reading: both shards have processed records; shard 1 has
	// drained its queue.
	rows.set(0, 50, 10)
	rows.set(1, 30, 0)
	w.Tick()

	// Shard 1 gets nothing for a tick while shard 0 progresses (sparse
	// input): nothing is queued for it, so it is idle and healthy.
	clk.Advance(time.Second)
	rows.set(0, 150, 10)
	w.Tick()
	if r := result(t, w, "shard.1"); r.Status != Healthy {
		t.Fatalf("idle shard must be healthy while others progress: %+v", r)
	}
	if r := result(t, w, "shard.0"); r.Status != Healthy {
		t.Fatalf("progressing shard must be healthy: %+v", r)
	}

	// Shard 1 gets input and processes none of it over one tick: stuck.
	clk.Advance(time.Second)
	rows.set(0, 250, 10)
	rows.set(1, 30, 20)
	w.Tick()
	r := result(t, w, "shard.1")
	if r.Status != Unhealthy || !strings.Contains(r.Detail, "shard 1") || !strings.Contains(r.Detail, "20 queued") {
		t.Fatalf("shard with input queued and no progress must be unhealthy within one tick: %+v", r)
	}
	if w.Ready() {
		t.Fatal("a stalled shard must cost readiness")
	}

	// Shard 1 resumes: verdict recovers immediately.
	clk.Advance(time.Second)
	rows.set(0, 350, 10)
	rows.set(1, 45, 5)
	w.Tick()
	if r := result(t, w, "shard.1"); r.Status != Healthy {
		t.Fatalf("resumed shard must recover: %+v", r)
	}
	if !w.Ready() {
		t.Fatalf("recovered plane must be ready: %+v", w.Report())
	}
}

func TestShardCheckerQuietPipeline(t *testing.T) {
	clk, _, w := setup()
	rows := make(planeRows, 1)
	w.Register(NewShardChecker(0, rows.stats))
	rows.set(0, 10, 0)
	w.Tick()

	// Nothing moves and nothing is queued — a quiet pipeline is not a
	// shard stall.
	clk.Advance(time.Second)
	w.Tick()
	if r := result(t, w, "shard.0"); r.Status != Healthy {
		t.Fatalf("quiet pipeline must not flag the shard: %+v", r)
	}

	// Before a run there are no rows at all.
	none := NewShardChecker(0, func() []shard.Stats { return nil })
	if r := none.Check(obs.Snapshot{}, obs.Snapshot{}); r.Status != Healthy {
		t.Fatalf("no run must read healthy: %+v", r)
	}
}
