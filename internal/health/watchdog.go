package health

import (
	"context"
	"sync"
	"time"

	"datacron/internal/obs"
)

// The watchdog's thresholds. Every delta rule flips its verdict on the
// first tick that shows the fault, so a fault injected between two ticks
// is reported on the very next one; a checkpoint is overdue once it is
// older than checkpointSlack capture intervals.
const (
	faultTicks      = 1 // consecutive faulty ticks before a verdict flips
	checkpointSlack = 2 // checkpoint interval multiple a capture may age to
)

// Watchdog periodically snapshots a registry and runs health checkers over
// consecutive snapshots. Each tick publishes every component's verdict back
// into the registry as a "health.<component>.status" gauge (0 healthy,
// 1 degraded, 2 unhealthy), making the health model visible on /metrics
// alongside the signals it derives from.
//
// All state is guarded by one mutex; Tick, Report, Ready and Live are safe
// to call concurrently with a running Run loop.
type Watchdog struct {
	reg *obs.Registry

	mu         sync.Mutex
	checkers   []Checker
	cp         *checkpointChecker
	snapshotFn func() obs.Snapshot
	prev       obs.Snapshot
	havePrev   bool
	results    []Result
	ticks      int64
}

// NewWatchdog builds a watchdog over reg with the built-in checkers
// (watermark stall, lag growth, checkpoint age). The checkpoint checker
// stays dormant until SetCheckpointInterval is called with a positive
// interval.
func NewWatchdog(reg *obs.Registry) *Watchdog {
	cp := &checkpointChecker{}
	return &Watchdog{
		reg: reg,
		cp:  cp,
		checkers: []Checker{
			&watermarkChecker{streak: make(map[string]int)},
			&lagChecker{streak: make(map[string]int)},
			cp,
		},
	}
}

// Register appends a custom checker; its verdict joins the built-ins in
// Report and the aggregate Ready/Live verdicts.
func (w *Watchdog) Register(c Checker) {
	if w == nil || c == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkers = append(w.checkers, c)
}

// SetSnapshotFunc overrides how Tick reads the metric state. The core
// pipeline points it at its merged view (main registry plus per-shard
// worker registries), so checkers — notably the SLO freshness tracker —
// see shard-local lag families that never appear in the main registry.
// Nil restores the default (the constructor registry).
func (w *Watchdog) SetSnapshotFunc(fn func() obs.Snapshot) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.snapshotFn = fn
}

// SetCheckpointInterval arms the checkpoint-age rule: captures older than
// checkpointSlack intervals mark the checkpoint component unhealthy. A
// non-positive interval disarms it.
func (w *Watchdog) SetCheckpointInterval(interval time.Duration) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cp.interval = interval
}

// Tick snapshots the registry, runs every checker against the previous and
// current snapshots, stores the verdicts and publishes them as status
// gauges. The first tick compares the snapshot with itself, so delta rules
// start healthy.
func (w *Watchdog) Tick() {
	if w == nil {
		return
	}
	w.mu.Lock()
	snap := w.snapshotFn
	w.mu.Unlock()
	var cur obs.Snapshot
	if snap != nil {
		cur = snap()
	} else {
		cur = w.reg.Snapshot()
	}
	w.mu.Lock()
	prev := w.prev
	if !w.havePrev {
		prev = cur
	}
	w.results = w.results[:0]
	for _, c := range w.checkers {
		w.results = append(w.results, c.Check(prev, cur))
	}
	verdicts := append([]Result(nil), w.results...)
	w.prev = cur
	w.havePrev = true
	w.ticks++
	w.mu.Unlock()
	// Publish after releasing w.mu: Gauge takes the registry mutex, and
	// nesting it inside the watchdog lock would stall concurrent Report/
	// Ready/Live callers behind metric registration.
	for _, r := range verdicts {
		w.reg.Gauge("health." + r.Component + ".status").Set(float64(r.Status))
	}
}

// Run ticks every interval until ctx is cancelled. It ticks once
// immediately so the first verdict does not wait a full interval.
func (w *Watchdog) Run(ctx context.Context, interval time.Duration) {
	if w == nil || interval <= 0 {
		return
	}
	w.Tick()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.Tick()
		}
	}
}

// Report returns a copy of the verdicts from the most recent tick, in
// checker registration order. Before the first tick it returns nil.
func (w *Watchdog) Report() []Result {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Result(nil), w.results...)
}

// Ticks returns how many times the watchdog has ticked.
func (w *Watchdog) Ticks() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ticks
}

// Ready reports whether every component is fully healthy: the process
// should receive traffic. Before the first tick a watchdog is ready — no
// evidence of trouble exists yet.
func (w *Watchdog) Ready() bool {
	if w == nil {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range w.results {
		if r.Status != Healthy {
			return false
		}
	}
	return true
}

// Live reports whether no component is unhealthy: the process should keep
// running. Degraded components cost readiness but not liveness.
func (w *Watchdog) Live() bool {
	if w == nil {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range w.results {
		if r.Status == Unhealthy {
			return false
		}
	}
	return true
}
