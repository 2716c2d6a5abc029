package slo

import (
	"testing"
	"time"

	"datacron/internal/health"
	"datacron/internal/obs"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// harness builds a ManualClock-driven registry with one p99 objective over
// lag.predict.seconds: ≤ 100ms per 1m window, overloaded after 2 windows.
func harness() (*obs.ManualClock, *obs.Registry, *Tracker) {
	clk := obs.NewManualClock(epoch)
	reg := obs.NewRegistry(clk)
	tr := NewTracker(reg, Objective{
		Family:    "lag.predict.seconds",
		Threshold: 100 * time.Millisecond,
		Window:    time.Minute,
		Burn:      2,
	})
	return clk, reg, tr
}

func observeLag(reg *obs.Registry, v float64, n int) {
	h := reg.Histogram("lag.predict.seconds")
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
}

func TestDefaults(t *testing.T) {
	o := Objective{Family: "lag.emit.seconds"}.withDefaults()
	if o.Name != "lag.emit.seconds" || o.Quantile != 0.99 || o.Window != time.Minute || o.Burn != 3 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestWindowCloseJudgesOnlyTheWindow(t *testing.T) {
	clk, reg, tr := harness()
	tr.Observe(reg.Snapshot()) // anchor

	observeLag(reg, 0.01, 100) // all fast
	clk.Advance(time.Minute)
	tr.Observe(reg.Snapshot())
	st := tr.Status()[0]
	if st.Windows != 1 || st.Violated || st.Streak != 0 {
		t.Fatalf("fast window: %+v", st)
	}
	if st.Current > 0.1 {
		t.Errorf("current = %v, want under threshold", st.Current)
	}

	// Second window is slow. The judgment must come from the delta — the
	// 100 fast observations of window 1 must not mask it.
	observeLag(reg, 2.0, 50)
	clk.Advance(time.Minute)
	tr.Observe(reg.Snapshot())
	st = tr.Status()[0]
	if st.Windows != 2 || !st.Violated || st.Violations != 1 || st.Streak != 1 {
		t.Fatalf("slow window: %+v", st)
	}
	if st.Current < 0.1 {
		t.Errorf("current = %v, want the slow window's p99", st.Current)
	}
	if st.BudgetBurn != 0.5 {
		t.Errorf("burn = %v, want 0.5", st.BudgetBurn)
	}

	// Published metrics follow.
	s := reg.Snapshot()
	if v, _ := s.Gauge("slo.lag.predict.seconds.violated"); v != 1 {
		t.Errorf("violated gauge = %v, want 1", v)
	}
	if c := s.Counter("slo.lag.predict.seconds.windows"); c != 2 {
		t.Errorf("windows counter = %d, want 2", c)
	}
	if c := s.Counter("slo.lag.predict.seconds.violations"); c != 1 {
		t.Errorf("violations counter = %d, want 1", c)
	}
}

// TestOverflowQuantileViolates: a threshold past the largest finite bucket
// bound (83.9 s) still fires when the window's quantile lies beyond every
// bound — lags of years, as a replay of old event times reads — and a window
// whose quantile is inside the bounds is judged by its value.
func TestOverflowQuantileViolates(t *testing.T) {
	clk := obs.NewManualClock(epoch)
	reg := obs.NewRegistry(clk)
	tr := NewTracker(reg, Objective{Family: "lag.predict.seconds", Threshold: 2 * time.Minute, Window: time.Minute})
	tr.Observe(reg.Snapshot())
	observeLag(reg, 60, 100)
	clk.Advance(time.Minute)
	tr.Observe(reg.Snapshot())
	if st := tr.Status()[0]; st.Windows != 1 || st.Violated {
		t.Fatalf("a window of 60 s lags against a 2 m threshold: %+v, want compliant", st)
	}
	observeLag(reg, 3e8, 100)
	clk.Advance(time.Minute)
	tr.Observe(reg.Snapshot())
	if st := tr.Status()[0]; st.Windows != 2 || !st.Violated || st.Violations != 1 {
		t.Fatalf("a window of 3e8 s lags against a 2 m threshold: %+v, want violated", st)
	}
}

func TestEmptyWindowVacuouslyCompliant(t *testing.T) {
	clk, reg, tr := harness()
	tr.Observe(reg.Snapshot())
	clk.Advance(3 * time.Minute) // three windows pass with no records at all
	tr.Observe(reg.Snapshot())
	st := tr.Status()[0]
	if st.Windows != 3 || st.Violations != 0 || st.Violated || st.Current != 0 {
		t.Fatalf("idle windows: %+v", st)
	}
}

func TestStreakEndsOnCompliantWindow(t *testing.T) {
	clk, reg, tr := harness()
	tr.Observe(reg.Snapshot())
	for i := 0; i < 2; i++ {
		observeLag(reg, 1.0, 20)
		clk.Advance(time.Minute)
		tr.Observe(reg.Snapshot())
	}
	if st := tr.Status()[0]; st.Streak != 2 {
		t.Fatalf("streak = %d, want 2", st.Streak)
	}
	observeLag(reg, 0.01, 20)
	clk.Advance(time.Minute)
	tr.Observe(reg.Snapshot())
	if st := tr.Status()[0]; st.Streak != 0 || st.Violations != 2 {
		t.Fatalf("after recovery: %+v", st)
	}
}

func TestRegistryResetReanchors(t *testing.T) {
	clk, reg, tr := harness()
	tr.Observe(reg.Snapshot())
	observeLag(reg, 2.0, 50)
	clk.Advance(30 * time.Second) // mid-window

	// Crash recovery: the registry resets, counts move backwards.
	reg.Reset()
	tr.Observe(reg.Snapshot())
	if st := tr.Status()[0]; st.Windows != 0 {
		t.Fatalf("re-anchor closed a window: %+v", st)
	}

	// The tracker must keep working from the new anchor: a compliant
	// post-recovery window closes clean.
	observeLag(reg, 0.01, 20)
	clk.Advance(time.Minute)
	tr.Observe(reg.Snapshot())
	if st := tr.Status()[0]; st.Windows != 1 || st.Violated {
		t.Fatalf("post-recovery window: %+v", st)
	}
}

func TestNilTrackerIsInert(t *testing.T) {
	var tr *Tracker
	tr.Observe(obs.Snapshot{})
	if st := tr.Status(); st != nil {
		t.Errorf("nil tracker status = %v, want nil", st)
	}
}

func TestCheckerEscalation(t *testing.T) {
	clk, reg, tr := harness()
	c := NewChecker(tr)
	if c.Name() != "slo" {
		t.Fatalf("name = %q", c.Name())
	}
	// First tick anchors; healthy.
	if res := c.Check(obs.Snapshot{}, reg.Snapshot()); res.Status != health.Healthy {
		t.Fatalf("anchor tick: %+v", res)
	}
	// One violated window: degraded (budget burning).
	observeLag(reg, 1.0, 20)
	clk.Advance(time.Minute)
	if res := c.Check(obs.Snapshot{}, reg.Snapshot()); res.Status != health.Degraded {
		t.Fatalf("one violated window: %+v", res)
	}
	// Second consecutive violated window reaches Burn=2: overloaded.
	observeLag(reg, 1.0, 20)
	clk.Advance(time.Minute)
	if res := c.Check(obs.Snapshot{}, reg.Snapshot()); res.Status != health.Overloaded {
		t.Fatalf("sustained violation: %+v", res)
	}
	// Recovery: a compliant window returns the component to healthy.
	observeLag(reg, 0.01, 20)
	clk.Advance(time.Minute)
	if res := c.Check(obs.Snapshot{}, reg.Snapshot()); res.Status != health.Healthy {
		t.Fatalf("after recovery: %+v", res)
	}
}
