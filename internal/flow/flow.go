// Package flow implements the admission-control and load-shedding plane of
// the ingest path. The paper's setting is *time-critical* mobility
// forecasting: when a bursty surveillance feed outruns processing, the
// system must bound latency and memory with a controlled response rather
// than queue without limit. Three mechanisms compose:
//
//   - bounded broker topics (msg.TopicLimit) give every partition a
//     capacity and an overload policy — block, drop-newest, or
//     drop-oldest-uncommitted;
//   - credit-based shard submission (shard.Config.Queue credits) makes a
//     slow worker push back on the coordinator instead of ballooning its
//     queue;
//   - the Shedder in this package drops low-value records before they are
//     even produced, driven by queue-depth watermarks.
//
// The Shedder's value model follows the synopses architecture: a raw
// position update is redundant once the mover's trajectory synopsis covers
// that time span (the synopsis reconstructs the position within error
// bounds), so under pressure it is the cheapest record to lose. Records
// that seed or refresh a synopsis — a mover's first report, or one after a
// coverage gap — are critical and are never shed.
package flow

import (
	"errors"
	"fmt"
	"time"

	"datacron/internal/msg"
	"datacron/internal/obs"
)

// ErrShed is returned by Shedder.Admit for records dropped by priority-aware
// load shedding. Callers distinguish it from hard failures with errors.Is:
// a shed is bookkeeping, not an error to abort on.
var ErrShed = errors.New("flow: record shed")

// Priority ranks a record's value under overload, lowest first.
type Priority int

const (
	// Bulk marks a raw position update well covered by the mover's synopsis:
	// reconstructable within error bounds, first to shed.
	Bulk Priority = iota
	// Standard marks an ordinary record: shed only above the high watermark.
	Standard
	// Critical marks a record that seeds or refreshes per-mover state (first
	// report of a mover, or first after a coverage gap). Never shed.
	Critical
)

func (p Priority) String() string {
	switch p {
	case Bulk:
		return "bulk"
	case Standard:
		return "standard"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Config assembles the configurable backpressure plane for a pipeline;
// core.WithFlow threads it through broker limits and the shedder. The shard
// plane's credit pool is not configured here: it is fixed at two poll batches
// per shard, the depth the run loop keeps in flight.
type Config struct {
	// QueueCap bounds the raw topic's per-partition uncommitted backlog.
	// 0 leaves the topic unbounded and disables the plane.
	QueueCap int
	// Policy is what Produce does when a partition is at capacity.
	Policy msg.OverloadPolicy
}

// coverageWindow is the per-mover event-time gap above which a record counts
// as Critical (it refreshes a stale synopsis). Records within half the
// window of the last kept one are Bulk.
const coverageWindow = 5 * time.Minute

// Enabled reports whether the plane is active.
func (c Config) Enabled() bool { return c.QueueCap > 0 }

// Shedder builds the shedder the plane arms in front of a raw topic of the
// given number of partitions. Its watermarks are derived from the total
// capacity, QueueCap × partitions: at half of it Bulk records are shed, and
// at 85 % everything but Critical is. Its coverage window is 5 minutes.
func (c Config) Shedder(partitions int, reg *obs.Registry) *Shedder {
	total := c.QueueCap * partitions
	return NewShedder(total/2, total*85/100, coverageWindow, reg)
}

// Stats is a value-type snapshot of a Shedder.
type Stats struct {
	Admitted     int64 `json:"admitted"`      // records admitted
	ShedBulk     int64 `json:"shed_bulk"`     // Bulk records shed at or above the low watermark
	ShedStandard int64 `json:"shed_standard"` // Standard records shed at or above the high watermark
	Level        int   `json:"level"`         // last observed pressure level: 0 ok, 1 low, 2 high
}

// Shed returns the total shed count.
func (s Stats) Shed() int64 { return s.ShedBulk + s.ShedStandard }

// Shedder performs priority-aware load shedding at the ingest boundary.
// It is driven by the single ingest goroutine and is not safe for
// concurrent use.
type Shedder struct {
	low, high int
	coverage  time.Duration
	lastKept  map[string]time.Time // mover ID -> event time of last admitted record
	stats     Stats

	// metric handles, nil-safe no-ops when reg is nil
	admitted *obs.Counter
	shedBulk *obs.Counter
	shedStd  *obs.Counter
	level    *obs.Gauge
	// Per-priority freshness accounting at the admission boundary: how
	// stale each class of record already is when it is allowed in. Indexed
	// by Priority; clock comes from the registry so simulated time works.
	clock obs.Clock
	lag   [3]obs.LagStage
}

// NewShedder builds a shedder with low/high backlog watermarks and the
// per-mover coverage window. reg may be nil for an unobserved shedder.
func NewShedder(low, high int, coverage time.Duration, reg *obs.Registry) *Shedder {
	if high < low {
		high = low
	}
	if coverage <= 0 {
		coverage = coverageWindow
	}
	return &Shedder{
		low:      low,
		high:     high,
		coverage: coverage,
		lastKept: make(map[string]time.Time),
		admitted: reg.Counter("flow.admitted"),
		shedBulk: reg.Counter("flow.shed.bulk"),
		shedStd:  reg.Counter("flow.shed.standard"),
		level:    reg.Gauge("flow.level"),
		clock:    reg.Clock(),
		lag: [3]obs.LagStage{
			Bulk:     obs.NewLagStage(reg, "ingest.bulk"),
			Standard: obs.NewLagStage(reg, "ingest.standard"),
			Critical: obs.NewLagStage(reg, "ingest.critical"),
		},
	}
}

// Classify ranks a record by how much per-mover state would be lost if it
// were shed, given the records admitted so far.
func (s *Shedder) Classify(id string, t time.Time) Priority {
	last, seen := s.lastKept[id]
	if !seen {
		return Critical // first report seeds the mover's synopsis
	}
	gap := t.Sub(last)
	if gap >= s.coverage {
		return Critical // refreshes a stale synopsis
	}
	if gap <= s.coverage/2 {
		return Bulk // well covered: reconstructable from the synopsis
	}
	return Standard
}

// Admit decides one record given the current queue depth (the bounded
// topic's total backlog). It returns nil and updates per-mover coverage when
// the record should be produced, or an error wrapping ErrShed when it was
// shed. Critical records are always admitted.
func (s *Shedder) Admit(id string, t time.Time, depth int) error {
	level := 0
	switch {
	case depth >= s.high:
		level = 2
	case depth >= s.low:
		level = 1
	}
	s.stats.Level = level
	s.level.Set(float64(level))
	pri := s.Classify(id, t)
	shed := (level == 2 && pri != Critical) || (level == 1 && pri == Bulk)
	if shed {
		switch pri {
		case Bulk:
			s.stats.ShedBulk++
			s.shedBulk.Inc()
		default:
			s.stats.ShedStandard++
			s.shedStd.Inc()
		}
		return fmt.Errorf("%w: mover %s priority %s at depth %d", ErrShed, id, pri, depth)
	}
	if last, seen := s.lastKept[id]; !seen || t.After(last) {
		s.lastKept[id] = t
	}
	s.stats.Admitted++
	s.admitted.Inc()
	// Freshness at admission, per priority class ("lag.ingest.<class>.*"):
	// only admitted records are observed — a shed record never enters the
	// pipeline, so it has no freshness budget to account for.
	if pri >= 0 && int(pri) < len(s.lag) {
		s.lag[pri].Observe(s.clock.Now(), t)
	}
	return nil
}

// Stats returns the shedder's counters so far.
func (s *Shedder) Stats() Stats { return s.stats }
