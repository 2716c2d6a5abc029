// Package health derives component liveness and readiness from the
// observability layer's metric snapshots. Nothing here probes components
// directly: a Watchdog periodically snapshots the obs.Registry the pipeline
// already writes to and lets a set of Checkers compare consecutive
// snapshots (the shard checkers read the shard plane's own progress rows
// instead). That keeps the health model passive (no extra load on the
// data path) and deterministic — driven by an injectable obs.Clock, the
// same registry state always yields the same verdict, so every rule is
// testable against a ManualClock.
//
// The built-in checkers encode the failure modes that matter for a
// time-critical streaming pipeline (paper §2.3): a watermark that stops
// advancing while input keeps arriving, consumer lag that grows tick over
// tick, and a checkpoint that has not been captured within its configured
// interval.
package health

import (
	"fmt"

	"datacron/internal/obs"
)

// Status is a component health verdict, ordered by severity.
type Status int

const (
	// Healthy means the component shows normal progress.
	Healthy Status = iota
	// Degraded means the component is serving but impaired (e.g. a
	// violated freshness SLO window); it costs readiness but not liveness.
	Degraded
	// Overloaded means the component is intentionally degrading service to
	// survive input pressure: the admission-control plane is shedding,
	// rejecting or blocking records. Like Degraded it costs readiness but
	// not liveness — the controlled response is the system working as
	// designed, not a fault.
	Overloaded
	// Unhealthy means the component is stuck or broken; it costs both
	// readiness and liveness.
	Unhealthy
)

// MarshalText renders the status by name, so the JSON probe bodies read
// "healthy"/"degraded"/"unhealthy" instead of bare integers.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the form MarshalText produces.
func (s *Status) UnmarshalText(text []byte) error {
	switch string(text) {
	case "healthy":
		*s = Healthy
	case "degraded":
		*s = Degraded
	case "overloaded":
		*s = Overloaded
	case "unhealthy":
		*s = Unhealthy
	default:
		return fmt.Errorf("health: unknown status %q", text)
	}
	return nil
}

// String returns the conventional lower-case form.
func (s Status) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Overloaded:
		return "overloaded"
	case Unhealthy:
		return "unhealthy"
	default:
		return "unknown"
	}
}

// Result is one component's verdict from one watchdog tick.
type Result struct {
	Component string `json:"component"`
	Status    Status `json:"status"`
	Detail    string `json:"detail"`
}

// Checker inspects a pair of consecutive registry snapshots and returns a
// verdict for one component. prev and cur are taken from the same registry;
// on the watchdog's first tick prev equals cur, so delta-based rules see
// zero movement and report Healthy. Checkers may keep internal state (e.g.
// consecutive-tick streaks); the Watchdog serialises calls.
type Checker interface {
	// Name is the component name the verdict is filed under.
	Name() string
	// Check compares two snapshots and returns the verdict.
	Check(prev, cur obs.Snapshot) Result
}
