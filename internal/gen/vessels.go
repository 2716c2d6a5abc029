package gen

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// VesselClass partitions the synthetic fleet into the behaviour classes the
// maritime use cases of Section 2 reason about.
type VesselClass int

const (
	Cargo VesselClass = iota
	Tanker
	Ferry
	Fishing
)

func (c VesselClass) String() string {
	switch c {
	case Cargo:
		return "cargo"
	case Tanker:
		return "tanker"
	case Ferry:
		return "ferry"
	case Fishing:
		return "fishing"
	default:
		return "vessel"
	}
}

// VesselInfo is a vessel-register entry (the 166,683-ship registry of
// Table 1, scaled down).
type VesselInfo struct {
	ID      string
	Class   VesselClass
	Name    string
	Flag    string
	LengthM float64
}

// VesselSimConfig parameterises the AIS traffic generator.
type VesselSimConfig struct {
	Seed           int64
	Region         geo.Rect
	Counts         map[VesselClass]int
	Start          time.Time
	ReportInterval time.Duration // mean reporting period per vessel
	PosNoiseM      float64       // GPS noise std-dev in metres
	SpeedNoiseKn   float64       // SOG noise std-dev in knots
	HeadingNoise   float64       // COG noise std-dev in degrees
	GapProb        float64       // per-report probability of a communication gap starting
	GapDuration    time.Duration // mean gap length
	ErrProb        float64       // per-report probability of an erroneous (teleported) record
	Ports          []Port        // route endpoints; generated if empty
}

// withDefaults fills zero fields with sensible values.
func (c VesselSimConfig) withDefaults() VesselSimConfig {
	if c.Region.IsEmpty() {
		c.Region = AegeanRegion
	}
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = 10 * time.Second
	}
	if c.PosNoiseM == 0 {
		c.PosNoiseM = 15
	}
	if c.SpeedNoiseKn == 0 {
		c.SpeedNoiseKn = 0.3
	}
	if c.HeadingNoise == 0 {
		c.HeadingNoise = 2
	}
	if c.GapDuration <= 0 {
		c.GapDuration = 12 * time.Minute
	}
	if len(c.Counts) == 0 {
		c.Counts = map[VesselClass]int{Cargo: 6, Tanker: 3, Ferry: 2, Fishing: 5}
	}
	if len(c.Ports) == 0 {
		c.Ports = Ports(c.Seed, 24, c.Region.Buffer(-20_000))
	}
	return c
}

// classProfile holds per-class kinematic parameters.
type classProfile struct {
	cruiseKn    float64 // typical transit speed
	turnRateDeg float64 // max turn rate per second
	lengthM     float64
}

func profileFor(class VesselClass, r *rand.Rand) classProfile {
	switch class {
	case Cargo:
		return classProfile{cruiseKn: jitter(r, 14, 0.2), turnRateDeg: 0.6, lengthM: 120 + r.Float64()*160}
	case Tanker:
		return classProfile{cruiseKn: jitter(r, 12, 0.2), turnRateDeg: 0.4, lengthM: 180 + r.Float64()*150}
	case Ferry:
		return classProfile{cruiseKn: jitter(r, 18, 0.15), turnRateDeg: 1.2, lengthM: 80 + r.Float64()*80}
	case Fishing:
		return classProfile{cruiseKn: jitter(r, 9, 0.2), turnRateDeg: 3.0, lengthM: 15 + r.Float64()*25}
	default:
		return classProfile{cruiseKn: 10, turnRateDeg: 1, lengthM: 50}
	}
}

// vesselState drives one vessel's motion through phases.
type vesselState struct {
	info    VesselInfo
	profile classProfile
	r       *rand.Rand

	pos       geo.Point
	started   bool
	heading   float64
	speedKn   float64
	waypoints []geo.Point // remaining route
	phase     vesselPhase
	phaseLeft time.Duration // remaining time in timed phases (moored, fishing)
	gapLeft   time.Duration // remaining communication gap
	fishTurn  float64       // current fishing zigzag target heading
	home      geo.Point     // fishing ground centre
}

type vesselPhase int

const (
	phaseTransit vesselPhase = iota
	phaseMoored
	phaseFishing
)

// VesselSim generates AIS-like traffic. Create with NewVesselSim, then call
// Run to obtain the registry and report stream.
type VesselSim struct {
	cfg     VesselSimConfig
	vessels []*vesselState
	infos   []VesselInfo
}

// NewVesselSim initialises a fleet per the config.
func NewVesselSim(cfg VesselSimConfig) *VesselSim {
	cfg = cfg.withDefaults()
	s := &VesselSim{cfg: cfg}
	flags := []string{"GR", "MT", "PA", "LR", "IT", "FR", "ES"}
	idx := 0
	for _, class := range []VesselClass{Cargo, Tanker, Ferry, Fishing} {
		for i := 0; i < cfg.Counts[class]; i++ {
			r := rng(cfg.Seed, "vessel/"+class.String(), i)
			prof := profileFor(class, r)
			info := VesselInfo{
				ID:      idFor("mmsi", idx),
				Class:   class,
				Name:    class.String() + "-" + idFor("V", i),
				Flag:    flags[r.Intn(len(flags))],
				LengthM: prof.lengthM,
			}
			st := &vesselState{info: info, profile: prof, r: r}
			s.initRoute(st)
			s.vessels = append(s.vessels, st)
			s.infos = append(s.infos, info)
			idx++
		}
	}
	return s
}

// Registry returns the static vessel register.
func (s *VesselSim) Registry() []VesselInfo { return s.infos }

// initRoute plans a new voyage for the vessel. The first voyage starts at a
// random port; later voyages continue from the vessel's current position.
func (s *VesselSim) initRoute(st *vesselState) {
	ports := s.cfg.Ports
	from := ports[st.r.Intn(len(ports))]
	if !st.started {
		st.pos = from.Pos
		st.started = true
	} else {
		from.Pos = st.pos
	}
	st.speedKn = 0
	nLegs := 1 + st.r.Intn(3)
	st.waypoints = st.waypoints[:0]
	switch st.info.Class {
	case Ferry:
		// Shuttle between two fixed ports.
		to := ports[st.r.Intn(len(ports))]
		st.waypoints = append(st.waypoints, to.Pos, from.Pos, to.Pos)
	case Fishing:
		// Transit to a fishing ground within a few hours' steaming of the
		// start port (fishing day trips, not ocean crossings).
		st.home = geo.Destination(st.pos, st.r.Float64()*360, 10_000+st.r.Float64()*30_000)
		if !s.cfg.Region.Contains(st.home) {
			st.home = randomPointIn(st.r, s.cfg.Region.Buffer(-30_000))
		}
		st.waypoints = append(st.waypoints, st.home)
	default:
		prev := from.Pos
		for i := 0; i < nLegs; i++ {
			// Intermediate waypoints wander; final one is a port.
			var next geo.Point
			if i == nLegs-1 {
				next = ports[st.r.Intn(len(ports))].Pos
			} else {
				next = geo.Destination(prev, st.r.Float64()*360, 40_000+st.r.Float64()*120_000)
				if !s.cfg.Region.Contains(next) {
					next = randomPointIn(st.r, s.cfg.Region)
				}
			}
			st.waypoints = append(st.waypoints, next)
			prev = next
		}
	}
	if len(st.waypoints) > 0 {
		st.heading = geo.InitialBearing(st.pos, st.waypoints[0])
	}
	st.phase = phaseTransit
}

// step advances the vessel by dt and reports whether a record should be
// emitted (false during communication gaps).
func (s *VesselSim) step(st *vesselState, dt time.Duration) bool {
	dtSec := dt.Seconds()
	switch st.phase {
	case phaseMoored:
		st.speedKn = math.Max(0, st.speedKn-0.5)
		st.phaseLeft -= dt
		if st.phaseLeft <= 0 {
			s.initRoute(st)
		}
	case phaseFishing:
		s.stepFishing(st, dtSec)
		st.phaseLeft -= dt
		if st.phaseLeft <= 0 {
			// Return to a port.
			st.waypoints = []geo.Point{s.cfg.Ports[st.r.Intn(len(s.cfg.Ports))].Pos}
			st.phase = phaseTransit
		}
	default:
		s.stepTransit(st, dt)
	}
	// Communication gap bookkeeping.
	if st.gapLeft > 0 {
		st.gapLeft -= dt
		return false
	}
	if s.cfg.GapProb > 0 && st.r.Float64() < s.cfg.GapProb {
		st.gapLeft = time.Duration(jitter(st.r, float64(s.cfg.GapDuration), 0.5))
		return false
	}
	return true
}

func (s *VesselSim) stepTransit(st *vesselState, dt time.Duration) {
	dtSec := dt.Seconds()
	if len(st.waypoints) == 0 {
		st.phase = phaseMoored
		st.phaseLeft = time.Duration(30+st.r.Intn(90)) * time.Minute
		return
	}
	target := st.waypoints[0]
	distTo := geo.Haversine(st.pos, target)
	if distTo < 1_500 {
		// Waypoint reached.
		st.waypoints = st.waypoints[1:]
		if len(st.waypoints) == 0 {
			if st.info.Class == Fishing && st.phase == phaseTransit && geo.Haversine(st.pos, st.home) < 3_000 {
				st.phase = phaseFishing
				st.phaseLeft = time.Duration(2+st.r.Intn(4)) * time.Hour
				st.speedKn = 3
				st.fishTurn = st.heading
				return
			}
			st.phase = phaseMoored
			st.phaseLeft = time.Duration(30+st.r.Intn(90)) * time.Minute
			return
		}
		target = st.waypoints[0]
	}
	// Steer toward target with bounded turn rate.
	want := geo.InitialBearing(st.pos, target)
	diff := geo.AngleDiff(st.heading, want)
	maxTurn := st.profile.turnRateDeg * dtSec
	turn := clampF(diff, -maxTurn, maxTurn)
	st.heading = geo.NormalizeHeading(st.heading + turn)
	// Accelerate toward cruise speed.
	st.speedKn += clampF(st.profile.cruiseKn-st.speedKn, -0.5, 0.5)
	st.pos = geo.Destination(st.pos, st.heading, st.speedKn*mobility.KnotsToMS*dtSec)
}

// stepFishing produces the slow zigzag pattern with frequent heading
// reversals that fishing vessels exhibit (the HeadingReversal motif of
// Section 6).
func (s *VesselSim) stepFishing(st *vesselState, dtSec float64) {
	// Occasionally pick a new zigzag target heading, preferring reversals.
	if st.r.Float64() < 0.05 {
		if st.r.Float64() < 0.6 {
			st.fishTurn = geo.NormalizeHeading(st.fishTurn + 180 + gaussian(st.r, 15))
		} else {
			st.fishTurn = st.r.Float64() * 360
		}
	}
	diff := geo.AngleDiff(st.heading, st.fishTurn)
	maxTurn := st.profile.turnRateDeg * dtSec
	st.heading = geo.NormalizeHeading(st.heading + clampF(diff, -maxTurn, maxTurn))
	st.speedKn = clampF(st.speedKn+gaussian(st.r, 0.2), 1.5, 4.5)
	st.pos = geo.Destination(st.pos, st.heading, st.speedKn*mobility.KnotsToMS*dtSec)
	// Stay near the fishing ground.
	if geo.Haversine(st.pos, st.home) > 15_000 {
		st.fishTurn = geo.InitialBearing(st.pos, st.home)
	}
}

// emit builds the (noisy) report for a vessel at time ts, possibly corrupted.
func (s *VesselSim) emit(st *vesselState, ts time.Time) mobility.Report {
	pos := st.pos
	if s.cfg.PosNoiseM > 0 {
		pos = geo.Destination(pos, st.r.Float64()*360, math.Abs(gaussian(st.r, s.cfg.PosNoiseM)))
	}
	rep := mobility.Report{
		ID:      st.info.ID,
		Time:    ts,
		Pos:     pos,
		SpeedKn: math.Max(0, st.speedKn+gaussian(st.r, s.cfg.SpeedNoiseKn)),
		Heading: geo.NormalizeHeading(st.heading + gaussian(st.r, s.cfg.HeadingNoise)),
		Source:  "ais",
	}
	if s.cfg.ErrProb > 0 && st.r.Float64() < s.cfg.ErrProb {
		// Erroneous record: teleport spike or absurd speed, for the data
		// quality and cleaning paths.
		if st.r.Float64() < 0.5 {
			rep.Pos = geo.Destination(pos, st.r.Float64()*360, 80_000+st.r.Float64()*200_000)
		} else {
			rep.SpeedKn = 150 + st.r.Float64()*500
		}
	}
	return rep
}

// Run simulates the fleet for the given duration and returns all reports in
// global time order. Reports arrive with per-vessel phase offsets so
// timestamps interleave like a real feed.
//
// Every vessel reports once per ReportInterval from an offset in [0,
// interval) drawn from its own generator, so each report of round k
// precedes every report of round k+1. Stepping the fleet round by round,
// the vessels of a round ordered by (offset, ID, index), therefore emits the
// reports already in sortReports order — the order a stable sort by (time,
// ID) gives the reports generated vessel by vessel — and each vessel draws
// from its generator exactly what the vessel-by-vessel loop drew.
func (s *VesselSim) Run(dur time.Duration) []mobility.Report {
	interval := s.cfg.ReportInterval
	fleet := make([]phasedVessel, len(s.vessels))
	rounds := 0
	for i, st := range s.vessels {
		offset := time.Duration(st.r.Int63n(int64(interval)))
		fleet[i] = phasedVessel{st: st, offset: offset, index: i}
		if offset < dur {
			rounds += int((dur-offset-1)/interval) + 1
		}
	}
	slices.SortFunc(fleet, func(a, b phasedVessel) int {
		if a.offset != b.offset {
			return cmp.Compare(a.offset, b.offset)
		}
		if c := strings.Compare(a.st.info.ID, b.st.info.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})
	out := make([]mobility.Report, 0, rounds)
	for round := time.Duration(0); round < dur; round += interval {
		for _, v := range fleet {
			elapsed := round + v.offset
			if elapsed >= dur {
				break // the rest of the fleet reports later still
			}
			if s.step(v.st, interval) {
				out = append(out, s.emit(v.st, s.cfg.Start.Add(elapsed)))
			}
		}
	}
	return out
}

// phasedVessel is a vessel with its phase offset for one Run.
type phasedVessel struct {
	st     *vesselState
	offset time.Duration
	index  int // position in the fleet, the last tie-break
}

// sortReports orders reports by time, breaking ties by mover ID; reports
// equal in both keep their generation order.
func sortReports(reports []mobility.Report) {
	slices.SortStableFunc(reports, func(a, b mobility.Report) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
}
