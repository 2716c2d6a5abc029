// Package synopses implements the datAcron Synopses Generator (Section
// 4.2.2): a single-pass, per-mover stream summariser that drops predictable
// positions along "normal" motion and retains only critical points — stops,
// slow motion, heading changes, speed changes, communication gaps, altitude
// changes, takeoffs and landings — achieving 80–99 % compression of the raw
// surveillance stream with bounded reconstruction error.
//
// The generator also applies the noise filters the paper highlights:
// structurally invalid records, non-monotonic timestamps and kinematically
// impossible jumps are discarded before critical-point detection.
package synopses

import (
	"fmt"
	"math"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/wire"
)

// CriticalType enumerates the critical-point types of Section 4.2.2.
type CriticalType string

const (
	TrajectoryStart  CriticalType = "trajectory_start"
	TrajectoryEnd    CriticalType = "trajectory_end"
	StopStart        CriticalType = "stop_start"
	StopEnd          CriticalType = "stop_end"
	SlowMotionStart  CriticalType = "slow_motion_start"
	SlowMotionEnd    CriticalType = "slow_motion_end"
	ChangeInHeading  CriticalType = "change_in_heading"
	SpeedChange      CriticalType = "speed_change"
	GapStart         CriticalType = "gap_start"
	GapEnd           CriticalType = "gap_end"
	ChangeInAltitude CriticalType = "change_in_altitude"
	Takeoff          CriticalType = "takeoff"
	Landing          CriticalType = "landing"
)

// CriticalPoint is a retained position annotated with the mobility event it
// signifies. Delta carries the magnitude that triggered the emission (e.g.
// heading difference in degrees, speed change ratio).
type CriticalPoint struct {
	mobility.Report
	Type  CriticalType `json:"type"`
	Delta float64      `json:"delta,omitempty"`
}

// Record layout of a critical point on the synopses topic (wire package
// encoding):
//
//	tag 0xC9 | version | bytes report | string type | f64 delta
//
// The report is mobility's binary encoding behind a length prefix; delta is
// its raw IEEE-754 bit pattern, so every value, NaN included, round-trips.

// criticalTypes lists every CriticalType, so a decoded type reuses the
// constant's string instead of allocating one.
var criticalTypes = [...]CriticalType{
	TrajectoryStart, TrajectoryEnd, StopStart, StopEnd, SlowMotionStart,
	SlowMotionEnd, ChangeInHeading, SpeedChange, GapStart, GapEnd,
	ChangeInAltitude, Takeoff, Landing,
}

// RecordSize is the exact size of cp's synopsis record. Like the report
// encoders, the record methods take a pointer, so encoding a point copies
// nothing.
func (cp *CriticalPoint) RecordSize() int {
	return wire.HeaderLen + cp.Report.FramedSize() + wire.StringLen(string(cp.Type)) + 8
}

// AppendRecord appends cp's synopsis record to dst. With RecordSize bytes
// of spare capacity in dst it does not allocate.
func (cp *CriticalPoint) AppendRecord(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.TagCriticalPoint)
	dst = cp.Report.AppendFramed(dst)
	dst = wire.AppendString(dst, string(cp.Type))
	return wire.AppendFloat64(dst, cp.Delta)
}

// Marshal encodes cp's synopsis record into a fresh buffer sized exactly.
func (cp *CriticalPoint) Marshal() []byte {
	return cp.AppendRecord(make([]byte, 0, cp.RecordSize()))
}

// UnmarshalCriticalPoint decodes a synopsis record. A record of another
// kind or version, a truncated one and one with trailing bytes fail.
func UnmarshalCriticalPoint(b []byte) (CriticalPoint, error) {
	rd := wire.NewReader(b)
	if err := rd.Header(wire.TagCriticalPoint); err != nil {
		return CriticalPoint{}, decodeErr(err)
	}
	var cp CriticalPoint
	mobility.ReadFramed(rd, &cp.Report)
	cp.Type = internType(rd.Bytes())
	cp.Delta = rd.Float64()
	if err := rd.Err(); err != nil {
		return CriticalPoint{}, decodeErr(err)
	}
	return cp, nil
}

func decodeErr(err error) error {
	return fmt.Errorf("synopses: decoding critical point: %w", err)
}

// internType returns the CriticalType spelled by b, the constant's own
// string when b names one.
func internType(b []byte) CriticalType {
	for _, t := range criticalTypes {
		if string(t) == string(b) {
			return t
		}
	}
	return CriticalType(b)
}

// Config holds the single-pass heuristics' thresholds. The defaults follow
// the maritime settings of the underlying summarisation framework
// (Patroumpas et al., GeoInformatica 2017), extended for aviation.
type Config struct {
	StopSpeedKn       float64       // below: candidate stationary
	SlowSpeedKn       float64       // below: candidate slow motion
	HeadingMinSpeedKn float64       // below: headings treated as noise
	MinDuration       time.Duration // how long a stop/slow phase must last
	HeadingDeltaDeg   float64       // heading difference threshold vs mean course
	SpeedRatio        float64       // relative speed change threshold
	GapDuration       time.Duration // silence longer than this is a gap
	AltRateFS         float64       // |vertical rate| threshold (feet/second)
	MaxSpeedMS        float64       // kinematic noise bound (implied speed)
	// HistoryWindow bounds the "recent course" the mean velocity vector is
	// computed over. It is a duration, not a point count, so detection
	// quality does not degrade at high report rates (a slow turn must
	// accumulate against a fixed span of past motion regardless of how
	// often positions arrive).
	HistoryWindow time.Duration
	HistoryLen    int // hard cap on retained points within the window
}

// DefaultMaritime returns the vessel-tuned configuration.
func DefaultMaritime() Config {
	return Config{
		StopSpeedKn:       0.5,
		SlowSpeedKn:       4.0,
		HeadingMinSpeedKn: 1.0,
		MinDuration:       5 * time.Minute,
		HeadingDeltaDeg:   15,
		SpeedRatio:        0.25,
		GapDuration:       10 * time.Minute,
		AltRateFS:         math.Inf(1), // vessels have no altitude
		MaxSpeedMS:        55,          // ~105 knots: nothing at sea is faster
		HistoryWindow:     3 * time.Minute,
		HistoryLen:        64,
	}
}

// DefaultAviation returns the aircraft-tuned configuration.
func DefaultAviation() Config {
	return Config{
		StopSpeedKn:       2,
		SlowSpeedKn:       40,
		HeadingMinSpeedKn: 20,
		MinDuration:       2 * time.Minute,
		HeadingDeltaDeg:   10,
		SpeedRatio:        0.25,
		GapDuration:       2 * time.Minute,
		AltRateFS:         10,
		MaxSpeedMS:        400, // ~780 knots
		HistoryWindow:     time.Minute,
		HistoryLen:        64,
	}
}

// Stats counts what the generator did, for the compression experiment.
type Stats struct {
	In       int64 // raw records offered
	Dropped  int64 // records discarded by noise filters
	Critical int64 // critical points emitted
}

// CompressionRatio is 1 - critical/accepted: the fraction of the (valid)
// input the synopsis discards.
func (s Stats) CompressionRatio() float64 {
	accepted := s.In - s.Dropped
	if accepted <= 0 {
		return 0
	}
	return 1 - float64(s.Critical)/float64(accepted)
}

// Track is one mover's single-pass state: everything the generator keeps
// per mover. The zero Track is a mover whose trajectory has not started (or
// has ended); the generator's own Process keeps one per mover ID, and a
// caller with a per-mover table of its own steps its tracks directly with
// AppendStep.
type Track struct {
	last        mobility.Report
	hasLast     bool
	history     []courseEntry // recent accepted points' terms of the mean course
	stopSince   time.Time
	stopped     bool
	stopEmitted bool
	slowSince   time.Time
	slow        bool
	slowEmitted bool
	meanSpeedKn float64 // EWMA of speed
	climbing    int     // -1 descending, 0 level, +1 climbing (last emitted regime)
	airborne    bool
	groundAlt   float64
	wasAirborne bool
}

// Generator is the single-pass synopses operator. Not safe for concurrent
// use; each shard worker of the real-time layer runs its own instance.
type Generator struct {
	cfg    Config
	states map[string]*Track
	stats  Stats
	m      *genMetrics // nil when uninstrumented
}

// NewGenerator returns a Generator with the given thresholds.
func NewGenerator(cfg Config) *Generator {
	if cfg.HistoryLen <= 0 {
		cfg.HistoryLen = 64
	}
	if cfg.HistoryWindow <= 0 {
		cfg.HistoryWindow = 3 * time.Minute
	}
	return &Generator{cfg: cfg, states: make(map[string]*Track)}
}

// Stats returns the counters accumulated so far.
func (g *Generator) Stats() Stats { return g.stats }

// SetStats replaces the counters, as a restore does: a caller that keeps the
// tracks itself checkpoints the counters beside them.
func (g *Generator) SetStats(s Stats) {
	g.stats = s
	if g.m != nil {
		// Re-anchor the delta mirror: metric state is monitoring-only and
		// deliberately outside the checkpoint, so only progress made after
		// this restore flows into the registry.
		g.m.last = s
	}
}

// Process consumes one raw report and returns the critical points it
// triggers (usually none), stepping the generator's own track of r's mover.
// Reports must arrive per-mover in time order; out-of-order and invalid
// records are dropped as noise.
func (g *Generator) Process(r mobility.Report) []CriticalPoint {
	var t *Track
	if r.Valid() {
		if t = g.states[r.ID]; t == nil {
			t = new(Track)
			g.states[r.ID] = t
		}
	}
	return g.AppendStep(nil, t, r)
}

// AppendStep processes r against t, its mover's track, appending the
// critical points it triggers to dst. t may be nil for a report that is not
// Valid, which is only counted and dropped.
func (g *Generator) AppendStep(dst []CriticalPoint, t *Track, r mobility.Report) []CriticalPoint {
	out := g.step(dst, t, r)
	if g.m != nil {
		g.m.sync(g.stats)
	}
	return out
}

// emit appends a critical point to out and counts it.
func (g *Generator) emit(out []CriticalPoint, cp CriticalPoint) []CriticalPoint {
	g.stats.Critical++
	return append(out, cp)
}

// step is AppendStep before the metrics mirror is brought up to date.
func (g *Generator) step(out []CriticalPoint, st *Track, r mobility.Report) []CriticalPoint {
	g.stats.In++
	if !r.Valid() {
		g.stats.Dropped++
		return out
	}
	if !st.hasLast {
		st.groundAlt = r.AltFt
		st.remember(r, g.cfg.HistoryLen, g.cfg.HistoryWindow)
		st.meanSpeedKn = r.SpeedKn
		return g.emit(out, CriticalPoint{Report: r, Type: TrajectoryStart})
	}

	// Noise filters.
	if !r.Time.After(st.last.Time) {
		g.stats.Dropped++
		return out
	}
	dt := r.Time.Sub(st.last.Time).Seconds()
	dist := geo.Haversine(st.last.Pos, r.Pos)
	if dist/dt > g.cfg.MaxSpeedMS {
		g.stats.Dropped++
		return out
	}

	// Communication gap.
	if r.Time.Sub(st.last.Time) >= g.cfg.GapDuration {
		out = g.emit(out, CriticalPoint{Report: st.last, Type: GapStart, Delta: r.Time.Sub(st.last.Time).Seconds()})
		out = g.emit(out, CriticalPoint{Report: r, Type: GapEnd, Delta: r.Time.Sub(st.last.Time).Seconds()})
	}

	// Stop detection.
	if r.SpeedKn < g.cfg.StopSpeedKn {
		if !st.stopped {
			st.stopped = true
			st.stopSince = r.Time
			st.stopEmitted = false
		} else if !st.stopEmitted && r.Time.Sub(st.stopSince) >= g.cfg.MinDuration {
			st.stopEmitted = true
			stopAnchor := r
			stopAnchor.Time = st.stopSince
			out = g.emit(out, CriticalPoint{Report: stopAnchor, Type: StopStart, Delta: r.SpeedKn})
		}
	} else if st.stopped {
		if st.stopEmitted {
			out = g.emit(out, CriticalPoint{Report: r, Type: StopEnd, Delta: r.SpeedKn})
		}
		st.stopped = false
		st.stopEmitted = false
	}

	// Slow motion (only meaningful when not stopped).
	if r.SpeedKn >= g.cfg.StopSpeedKn && r.SpeedKn < g.cfg.SlowSpeedKn {
		if !st.slow {
			st.slow = true
			st.slowSince = r.Time
			st.slowEmitted = false
		} else if !st.slowEmitted && r.Time.Sub(st.slowSince) >= g.cfg.MinDuration {
			st.slowEmitted = true
			slowAnchor := r
			slowAnchor.Time = st.slowSince
			out = g.emit(out, CriticalPoint{Report: slowAnchor, Type: SlowMotionStart, Delta: r.SpeedKn})
		}
	} else if st.slow && r.SpeedKn >= g.cfg.SlowSpeedKn {
		if st.slowEmitted {
			out = g.emit(out, CriticalPoint{Report: r, Type: SlowMotionEnd, Delta: r.SpeedKn})
		}
		st.slow = false
		st.slowEmitted = false
	}

	// Change in heading vs the mean velocity vector over the recent course.
	if r.SpeedKn >= g.cfg.HeadingMinSpeedKn { // headings are noise when barely moving
		meanBrg, okBrg := st.meanCourse()
		if okBrg {
			d := math.Abs(geo.AngleDiff(meanBrg, r.Heading))
			if d >= g.cfg.HeadingDeltaDeg {
				out = g.emit(out, CriticalPoint{Report: r, Type: ChangeInHeading, Delta: geo.AngleDiff(meanBrg, r.Heading)})
				st.forgetCourse() // restart the course window
			}
		}
	}

	// Speed change vs running mean speed.
	if st.meanSpeedKn > g.cfg.StopSpeedKn {
		ratio := math.Abs(r.SpeedKn-st.meanSpeedKn) / st.meanSpeedKn
		if ratio >= g.cfg.SpeedRatio {
			out = g.emit(out, CriticalPoint{Report: r, Type: SpeedChange, Delta: ratio})
			st.meanSpeedKn = r.SpeedKn // re-anchor after emission
		}
	}
	st.meanSpeedKn = 0.8*st.meanSpeedKn + 0.2*r.SpeedKn

	// Aviation: altitude regime changes, takeoff, landing.
	if !math.IsInf(g.cfg.AltRateFS, 1) {
		out = g.processVertical(out, st, r)
	}

	st.remember(r, g.cfg.HistoryLen, g.cfg.HistoryWindow)
	return out
}

// processVertical handles ChangeInAltitude, Takeoff and Landing, appending
// what it emits to out.
func (g *Generator) processVertical(out []CriticalPoint, st *Track, r mobility.Report) []CriticalPoint {
	// Altitude regime: emit when the climb/descend/level regime changes.
	regime := 0
	if r.VRateFS > g.cfg.AltRateFS {
		regime = 1
	} else if r.VRateFS < -g.cfg.AltRateFS {
		regime = -1
	}
	if regime != st.climbing {
		if regime != 0 {
			out = g.emit(out, CriticalPoint{Report: r, Type: ChangeInAltitude, Delta: r.VRateFS})
		}
		st.climbing = regime
	}

	// Ground reference: lowest altitude seen while not airborne.
	if !st.airborne && r.AltFt < st.groundAlt {
		st.groundAlt = r.AltFt
	}
	const liftoffFt = 300
	if !st.airborne && r.AltFt > st.groundAlt+liftoffFt && r.VRateFS > 0 {
		// The previous report was the last on the ground: Takeoff.
		st.airborne = true
		st.wasAirborne = true
		out = g.emit(out, CriticalPoint{Report: st.last, Type: Takeoff, Delta: r.AltFt - st.groundAlt})
	}
	if st.airborne {
		// Landing: descending phase has ended near a (new) ground level.
		if math.Abs(r.VRateFS) <= 1 && st.last.VRateFS < -1 && r.SpeedKn < 250 {
			st.airborne = false
			st.groundAlt = r.AltFt
			out = g.emit(out, CriticalPoint{Report: r, Type: Landing, Delta: r.AltFt})
		}
	}
	return out
}

// Flush emits a TrajectoryEnd for every active mover and clears all state.
func (g *Generator) Flush() []CriticalPoint {
	out := make([]CriticalPoint, 0, len(g.states))
	for _, t := range g.states {
		out = g.AppendEnd(out, t)
	}
	g.states = make(map[string]*Track)
	sortCritical(out)
	return out
}

// AppendEnd ends t's trajectory: it appends t's TrajectoryEnd to dst (none
// for a track that has not started) and resets t to the zero Track, keeping
// its history's storage.
func (g *Generator) AppendEnd(dst []CriticalPoint, t *Track) []CriticalPoint {
	if t.hasLast {
		dst = g.emit(dst, CriticalPoint{Report: t.last, Type: TrajectoryEnd})
		if g.m != nil {
			g.m.sync(g.stats)
		}
	}
	*t = Track{history: t.history[:0]}
	return dst
}

// courseVec is one history entry's term of the mean velocity vector:
// (sin, cos) of its heading weighted by its speed. A retained entry never
// changes, so remember computes its term once and meanCourse only sums.
type courseVec struct{ x, y float64 }

func courseOf(r mobility.Report) courseVec {
	rad := geo.Radians(r.Heading)
	return courseVec{
		x: math.Sin(rad) * math.Max(r.SpeedKn, 0.1),
		y: math.Cos(rad) * math.Max(r.SpeedKn, 0.1),
	}
}

// courseEntry is one retained history point: all that eviction and the mean
// course read of it.
type courseEntry struct {
	t time.Time
	c courseVec
}

func (st *Track) remember(r mobility.Report, maxLen int, window time.Duration) {
	st.last = r
	st.hasLast = true
	//lint:ignore boundedchan evicted below to at most maxLen (Config.HistoryLen, 64 by default)
	st.history = append(st.history, courseEntry{t: r.Time, c: courseOf(r)})
	// Evict by age first, then enforce the hard cap.
	cutoff := r.Time.Add(-window)
	drop := 0
	for drop < len(st.history)-1 && st.history[drop].t.Before(cutoff) {
		drop++
	}
	if over := len(st.history) - drop - maxLen; over > 0 {
		drop += over
	}
	if drop > 0 {
		st.history = append(st.history[:0], st.history[drop:]...)
	}
}

// forgetCourse empties the history.
func (st *Track) forgetCourse() {
	st.history = st.history[:0]
}

// meanCourse returns the bearing of the mean velocity vector over the
// retained history (the "most recent course" of the paper). It sums the
// cached terms in history order.
func (st *Track) meanCourse() (float64, bool) {
	if len(st.history) < 2 {
		return 0, false
	}
	var x, y float64
	for _, h := range st.history {
		x += h.c.x
		y += h.c.y
	}
	if x == 0 && y == 0 {
		return 0, false
	}
	return geo.NormalizeHeading(geo.Degrees(math.Atan2(x, y))), true
}

func sortCritical(cps []CriticalPoint) {
	// Stable order by time then ID for deterministic output.
	for i := 1; i < len(cps); i++ {
		for j := i; j > 0; j-- {
			a, b := cps[j-1], cps[j]
			if b.Time.Before(a.Time) || (b.Time.Equal(a.Time) && b.ID < a.ID) {
				cps[j-1], cps[j] = b, a
			} else {
				break
			}
		}
	}
}
