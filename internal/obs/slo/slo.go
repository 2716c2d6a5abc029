// Package slo evaluates freshness service-level objectives over metric
// snapshots. An Objective states a bound on a quantile of an event-time
// lag histogram over fixed evaluation windows — "p99 prediction lag ≤ 5s
// over 1m windows" — and the Tracker closes a window each time the
// snapshot clock crosses a boundary, judging only the observations made
// *within* that window (the histogram delta against the window-start
// baseline, not the process-lifetime distribution, which would let an old
// good hour mask a bad minute).
//
// The Tracker is snapshot-driven and clock-agnostic: feed it Observe calls
// from any cadence (the health watchdog's tick, a test with a ManualClock)
// and it keeps per-objective violation counters and the error-budget burn
// rate. Checker adapts a Tracker to the health plane: a freshly violated
// window degrades the "slo" component, and Burn consecutive violated
// windows escalate to Overloaded — the pipeline is still serving, but
// persistently later than the objective allows.
package slo

import (
	"fmt"
	"time"

	"datacron/internal/health"
	"datacron/internal/obs"
)

// Objective is one freshness target.
type Objective struct {
	// Name labels the objective in /slo, /statz and the published metrics
	// ("slo.<name>.*"). Defaults to Family when empty.
	Name string
	// Family is the lag histogram to evaluate, e.g. "lag.predict.seconds".
	Family string
	// Quantile in (0,1], e.g. 0.99. Default 0.99.
	Quantile float64
	// Threshold is the freshness bound the quantile must stay within.
	Threshold time.Duration
	// Window is the evaluation window length. Default 1m.
	Window time.Duration
	// Burn is how many consecutive violated windows count as sustained
	// violation (the Overloaded escalation in Checker). Default 3.
	Burn int
}

func (o Objective) withDefaults() Objective {
	if o.Name == "" {
		o.Name = o.Family
	}
	if o.Quantile <= 0 || o.Quantile > 1 {
		o.Quantile = 0.99
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.Burn <= 0 {
		o.Burn = 3
	}
	return o
}

// Status is one objective's current standing — the /slo wire form.
type Status struct {
	Name             string  `json:"name"`
	Family           string  `json:"family"`
	Quantile         float64 `json:"quantile"`
	ThresholdSeconds float64 `json:"thresholdSeconds"`
	WindowSeconds    float64 `json:"windowSeconds"`
	// Current is the evaluated quantile (seconds) of the last closed
	// window; 0 until a window has closed or when it had no observations.
	Current float64 `json:"currentSeconds"`
	// Violated reports whether the last closed window broke the objective.
	Violated bool `json:"violated"`
	// Windows / Violations count closed and violated windows.
	Windows    int64 `json:"windows"`
	Violations int64 `json:"violations"`
	// Streak is the current run of consecutively violated windows.
	Streak int `json:"streak"`
	// BudgetBurn is Violations/Windows — the fraction of the error budget
	// burned so far (0 until a window has closed).
	BudgetBurn float64 `json:"budgetBurn"`
}

type objState struct {
	cfg Objective

	windowStart time.Time
	base        obs.HistogramSnapshot
	haveBase    bool

	current    float64
	violated   bool
	windows    int64
	violations int64
	streak     int

	// Published handles (no-ops without a registry).
	gQuantile *obs.Gauge
	gViolated *obs.Gauge
	gBurn     *obs.Gauge
	cWindows  *obs.Counter
	cViolated *obs.Counter
}

// Tracker evaluates a set of objectives. Drive it with Observe; it is not
// safe for concurrent use on its own — the health watchdog (or the test)
// serialises calls. A nil *Tracker is a valid no-op.
type Tracker struct {
	objs []*objState
}

// NewTracker builds a tracker over the given objectives, publishing per-
// objective gauges and counters into reg (nil reg disables publication):
//
//	slo.<name>.quantile_seconds  gauge    last closed window's quantile
//	slo.<name>.violated          gauge    1 while the last window violated
//	slo.<name>.burn              gauge    error-budget burn fraction
//	slo.<name>.windows           counter  closed windows
//	slo.<name>.violations        counter  violated windows
func NewTracker(reg *obs.Registry, objs ...Objective) *Tracker {
	t := &Tracker{}
	for _, o := range objs {
		o = o.withDefaults()
		t.objs = append(t.objs, &objState{
			cfg:       o,
			gQuantile: reg.Gauge("slo." + o.Name + ".quantile_seconds"),
			gViolated: reg.Gauge("slo." + o.Name + ".violated"),
			gBurn:     reg.Gauge("slo." + o.Name + ".burn"),
			cWindows:  reg.Counter("slo." + o.Name + ".windows"),
			cViolated: reg.Counter("slo." + o.Name + ".violations"),
		})
	}
	return t
}

// Observe feeds one metric snapshot. The first call anchors each
// objective's window; later calls close as many windows as snap.At has
// crossed since. A registry reset (crash recovery) moves histogram counts
// backwards — the tracker detects that and re-anchors instead of deriving
// negative deltas.
func (t *Tracker) Observe(snap obs.Snapshot) {
	if t == nil {
		return
	}
	for _, o := range t.objs {
		o.observe(snap)
	}
}

func (o *objState) observe(snap obs.Snapshot) {
	cur, ok := snap.Histogram(o.cfg.Family)
	if !o.haveBase {
		// Anchor: the family may not exist yet (no records processed) — an
		// absent histogram is the zero snapshot, which subtracts cleanly.
		o.windowStart = snap.At
		o.base = cur
		o.haveBase = true
		return
	}
	if !ok && o.base.Count > 0 {
		// Family vanished after carrying observations (registry reset before
		// the first new observation): re-anchor on the empty distribution.
		o.windowStart = snap.At
		o.base = obs.HistogramSnapshot{}
		return
	}
	// A family that has never existed is the zero distribution: idle
	// windows still close (vacuously compliant) so Windows keeps counting.
	if cur.Count < o.base.Count {
		// Counts moved backwards: the registry was reset underneath us.
		// Re-anchor; the partial window before the crash is not judged
		// (its observations are gone with the reset, by design).
		o.windowStart = snap.At
		o.base = cur
		return
	}
	for snap.At.Sub(o.windowStart) >= o.cfg.Window {
		o.closeWindow(cur)
		o.windowStart = o.windowStart.Add(o.cfg.Window)
	}
}

// closeWindow judges the delta distribution accumulated since the window
// baseline. An empty window (no lag observations) is vacuously compliant:
// nothing was late because nothing happened.
func (o *objState) closeWindow(cur obs.HistogramSnapshot) {
	delta := sub(cur, o.base)
	o.base = cur
	o.windows++
	o.cWindows.Inc()
	o.current = 0
	o.violated = false
	if delta.Count > 0 {
		q := delta.Quantile(o.cfg.Quantile)
		o.current = q
		o.violated = q > o.cfg.Threshold.Seconds() || pastBounds(delta, o.cfg.Quantile)
	}
	if o.violated {
		o.violations++
		o.streak++
		o.cViolated.Inc()
	} else {
		o.streak = 0
	}
	o.gQuantile.Set(o.current)
	if o.violated {
		o.gViolated.Set(1)
	} else {
		o.gViolated.Set(0)
	}
	o.gBurn.Set(float64(o.violations) / float64(o.windows))
}

// pastBounds reports whether h's q-quantile falls in its overflow bucket,
// past every finite bound. Quantile then reports the largest finite bound,
// which says nothing of how far past it the quantile lies, so a window whose
// quantile is there cannot be shown compliant with any threshold. h holds
// observations.
func pastBounds(h obs.HistogramSnapshot, q float64) bool {
	var finite int64
	for _, c := range h.Counts[:min(len(h.Bounds), len(h.Counts))] {
		finite += c
	}
	return finite == 0 || float64(finite) < q*float64(h.Count)
}

// sub returns cur − base bucket-wise. Mismatched shapes (bounds changed,
// base empty) fall back to cur alone.
func sub(cur, base obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(base.Counts) != len(cur.Counts) {
		return cur
	}
	out := obs.HistogramSnapshot{
		Name:   cur.Name,
		Bounds: cur.Bounds,
		Counts: make([]int64, len(cur.Counts)),
		Count:  cur.Count - base.Count,
		Sum:    cur.Sum - base.Sum,
	}
	for i := range cur.Counts {
		out.Counts[i] = cur.Counts[i] - base.Counts[i]
	}
	return out
}

// Status returns every objective's standing, in construction order.
func (t *Tracker) Status() []Status {
	if t == nil {
		return nil
	}
	out := make([]Status, 0, len(t.objs))
	for _, o := range t.objs {
		st := Status{
			Name:             o.cfg.Name,
			Family:           o.cfg.Family,
			Quantile:         o.cfg.Quantile,
			ThresholdSeconds: o.cfg.Threshold.Seconds(),
			WindowSeconds:    o.cfg.Window.Seconds(),
			Current:          o.current,
			Violated:         o.violated,
			Windows:          o.windows,
			Violations:       o.violations,
			Streak:           o.streak,
		}
		if o.windows > 0 {
			st.BudgetBurn = float64(o.violations) / float64(o.windows)
		}
		out = append(out, st)
	}
	return out
}

// Checker adapts a Tracker to the health plane: each watchdog tick feeds
// the tick's snapshot into the tracker, then files one "slo" verdict over
// all objectives — Degraded while any objective's last window violated
// (the budget is burning), Overloaded once any objective has violated
// Burn consecutive windows (sustained violation: the pipeline is serving
// persistently staler than promised). Like the other health checkers it
// costs readiness, never liveness.
type Checker struct {
	t *Tracker
}

// NewChecker wraps a tracker for Watchdog.Register.
func NewChecker(t *Tracker) *Checker { return &Checker{t: t} }

// Name implements health.Checker.
func (c *Checker) Name() string { return "slo" }

// Check implements health.Checker. prev is unused: the tracker keeps its
// own window baselines, which survive across ticks.
func (c *Checker) Check(_, cur obs.Snapshot) health.Result {
	c.t.Observe(cur)
	res := health.Result{Component: "slo", Status: health.Healthy, Detail: "objectives met"}
	for _, st := range c.t.Status() {
		switch {
		case st.Streak >= burnOf(st, c.t):
			return health.Result{
				Component: "slo",
				Status:    health.Overloaded,
				Detail: fmt.Sprintf("%s: p%g=%.3gs > %.3gs for %d consecutive windows",
					st.Name, st.Quantile*100, st.Current, st.ThresholdSeconds, st.Streak),
			}
		case st.Violated && res.Status < health.Degraded:
			res = health.Result{
				Component: "slo",
				Status:    health.Degraded,
				Detail: fmt.Sprintf("%s: p%g=%.3gs > %.3gs (budget burn %.0f%%)",
					st.Name, st.Quantile*100, st.Current, st.ThresholdSeconds, st.BudgetBurn*100),
			}
		}
	}
	return res
}

// burnOf finds the objective's configured Burn for a status row.
func burnOf(st Status, t *Tracker) int {
	for _, o := range t.objs {
		if o.cfg.Name == st.Name {
			return o.cfg.Burn
		}
	}
	return 3
}
