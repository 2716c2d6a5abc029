package gen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
)

// Waypoint is a named point of a flight plan with a target altitude.
type Waypoint struct {
	Name  string
	Pos   geo.Point
	AltFt float64
}

// AircraftSize buckets aircraft by wake category; it is one of the
// enrichment features the Hybrid Clustering/HMM predictor conditions on.
type AircraftSize int

const (
	SizeLight AircraftSize = iota
	SizeMedium
	SizeHeavy
)

func (s AircraftSize) String() string {
	switch s {
	case SizeLight:
		return "light"
	case SizeMedium:
		return "medium"
	case SizeHeavy:
		return "heavy"
	default:
		return "unknown"
	}
}

// FlightPlan is the intended trajectory a flight files before departure —
// the reference the TP experiments measure deviations against.
type FlightPlan struct {
	FlightID  string
	Route     string // route-variant identifier, e.g. "LEBL-LEMD/1"
	Departure string // airport ID
	Arrival   string
	DepTime   time.Time
	CruiseFL  float64 // cruise flight level in hundreds of feet
	Size      AircraftSize
	Waypoints []Waypoint
}

// FlightSimConfig parameterises the ADS-B traffic generator.
type FlightSimConfig struct {
	Seed            int64
	Start           time.Time
	NumFlights      int
	ReportInterval  time.Duration // paper's Figure 5(a) uses 8 s sampling
	Weather         *WeatherField // optional; deviations become weather-driven
	Airports        []Airport     // defaults to StandardAirports
	RoutePairs      [][2]int      // indices into Airports; default: a fixed mix
	VariantsPerPair int           // route variants (natural clusters); default 3
	DeviationM      float64       // systematic cross-track deviation scale in metres
	DeviationNoiseM float64       // unpredictable (AR) deviation noise; default DeviationM/4
	PosNoiseM       float64
}

func (c FlightSimConfig) withDefaults() FlightSimConfig {
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	if c.NumFlights == 0 {
		c.NumFlights = 20
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = 8 * time.Second
	}
	if len(c.Airports) == 0 {
		c.Airports = StandardAirports()
	}
	if len(c.RoutePairs) == 0 {
		c.RoutePairs = [][2]int{{0, 1}, {1, 0}, {1, 4}, {0, 5}}
	}
	if c.VariantsPerPair == 0 {
		c.VariantsPerPair = 3
	}
	if c.DeviationM == 0 {
		c.DeviationM = 400
	}
	if c.DeviationNoiseM == 0 {
		c.DeviationNoiseM = c.DeviationM / 4
	}
	if c.PosNoiseM == 0 {
		c.PosNoiseM = 25
	}
	return c
}

// routeVariant is a reusable lateral profile for an airport pair: the
// waypoint skeleton every flight on this variant files.
type routeVariant struct {
	name      string
	dep, arr  Airport
	waypoints []Waypoint
	biasM     float64 // variant-specific systematic deviation
	windCoef  float64 // variant-specific sensitivity to cross wind
}

// FlightSim generates flight plans and the corresponding actual trajectories.
type FlightSim struct {
	cfg      FlightSimConfig
	variants []routeVariant
}

// NewFlightSim builds the route network per the config.
func NewFlightSim(cfg FlightSimConfig) *FlightSim {
	cfg = cfg.withDefaults()
	s := &FlightSim{cfg: cfg}
	for pi, pair := range cfg.RoutePairs {
		dep, arr := cfg.Airports[pair[0]], cfg.Airports[pair[1]]
		for v := 0; v < cfg.VariantsPerPair; v++ {
			r := rng(cfg.Seed, "route/"+dep.ID+arr.ID, v)
			s.variants = append(s.variants, s.makeVariant(r, dep, arr, pi, v))
		}
	}
	return s
}

// makeVariant lays 3–5 intermediate waypoints along the great circle with a
// variant-specific lateral offset profile, plus climb and descent fixes.
func (s *FlightSim) makeVariant(r *rand.Rand, dep, arr Airport, pairIdx, v int) routeVariant {
	dist := geo.Haversine(dep.Pos, arr.Pos)
	nMid := 3 + r.Intn(3)
	cruiseAlt := 32000 + float64(r.Intn(5))*2000
	// Lateral offset profile: a smooth bump unique to this variant.
	side := 1.0
	if v%2 == 1 {
		side = -1
	}
	amplitude := side * (8_000 + float64(v)*12_000 + r.Float64()*6_000)

	wps := []Waypoint{{Name: dep.ID, Pos: dep.Pos, AltFt: dep.ElevFt}}
	brg := geo.InitialBearing(dep.Pos, arr.Pos)
	for i := 1; i <= nMid; i++ {
		f := float64(i) / float64(nMid+1)
		base := geo.Interpolate(dep.Pos, arr.Pos, f)
		// Offset perpendicular to track, peaking mid-route.
		off := amplitude * math.Sin(math.Pi*f)
		pos := geo.Destination(base, brg+90, off)
		alt := cruiseAlt
		// First and last fixes sit on the climb/descent profile.
		if i == 1 {
			alt = cruiseAlt * 0.7
		}
		if i == nMid {
			alt = cruiseAlt * 0.6
		}
		wps = append(wps, Waypoint{
			Name:  fmt.Sprintf("%s%s%d%c", dep.ID[2:], arr.ID[2:], v, 'A'+byte(i-1)),
			Pos:   pos,
			AltFt: alt,
		})
	}
	wps = append(wps, Waypoint{Name: arr.ID, Pos: arr.Pos, AltFt: arr.ElevFt})
	_ = dist
	return routeVariant{
		name:      fmt.Sprintf("%s-%s/%d", dep.ID, arr.ID, v),
		dep:       dep,
		arr:       arr,
		waypoints: wps,
		biasM:     gaussian(r, s.cfg.DeviationM),
		windCoef:  20 + r.Float64()*60,
	}
}

// flightProfile holds per-flight performance numbers.
type flightProfile struct {
	climbFPS   float64 // climb rate feet/second
	descentFPS float64
	cruiseKn   float64
	approachKn float64
	turnRate   float64 // degrees per second
	size       AircraftSize
}

func randomFlightProfile(r *rand.Rand) flightProfile {
	size := AircraftSize(r.Intn(3))
	base := flightProfile{
		climbFPS:   38 + r.Float64()*12, // ~2300-3000 fpm
		descentFPS: 30 + r.Float64()*10,
		cruiseKn:   430 + r.Float64()*40,
		approachKn: 150 + r.Float64()*20,
		turnRate:   3,
		size:       size,
	}
	if size == SizeHeavy {
		base.climbFPS *= 0.8
		base.cruiseKn += 20
	}
	return base
}

// Run generates all flights: their filed plans and the actual position
// reports, globally time-ordered.
func (s *FlightSim) Run() ([]FlightPlan, []mobility.Report) {
	plans := make([]FlightPlan, 0, s.cfg.NumFlights)
	var reports []mobility.Report
	for i := 0; i < s.cfg.NumFlights; i++ {
		r := rng(s.cfg.Seed, "flight", i)
		variant := s.variants[r.Intn(len(s.variants))]
		prof := randomFlightProfile(r)
		dep := s.cfg.Start.Add(time.Duration(r.Int63n(int64(24 * time.Hour))))
		plan := FlightPlan{
			FlightID:  idFor("flt", i),
			Route:     variant.name,
			Departure: variant.dep.ID,
			Arrival:   variant.arr.ID,
			DepTime:   dep,
			CruiseFL:  variant.waypoints[len(variant.waypoints)/2].AltFt / 100,
			Size:      prof.size,
			Waypoints: variant.waypoints,
		}
		plans = append(plans, plan)
		reports = append(reports, s.fly(r, plan, variant, prof)...)
	}
	sortReports(reports)
	return plans, reports
}

// actualWaypoints perturbs the plan's waypoints into the positions the
// flight really crosses: variant bias + wind-driven offset + size and
// weekday factors + noise. This plants exactly the structured deviations
// the Figure 5(b) experiment measures recovery of.
func (s *FlightSim) actualWaypoints(r *rand.Rand, plan FlightPlan, v routeVariant) []Waypoint {
	out := make([]Waypoint, len(plan.Waypoints))
	copy(out, plan.Waypoints)
	weekday := float64(plan.DepTime.Weekday())
	prevNoise := 0.0
	for i := 1; i < len(out)-1; i++ {
		wp := out[i]
		brg := geo.InitialBearing(plan.Waypoints[i-1].Pos, plan.Waypoints[i].Pos)
		offset := v.biasM
		if s.cfg.Weather != nil {
			u, w := s.cfg.Weather.Wind(wp.Pos, plan.DepTime)
			// Cross-track wind component drives the deviation.
			cross := -u*math.Cos(geo.Radians(brg)) + w*math.Sin(geo.Radians(brg))
			offset += v.windCoef * cross
		}
		offset += (weekday - 3) * 30 * float64(plan.Size+1)
		// Serially correlated noise: consecutive waypoint deviations share
		// an AR(1) component (an aircraft pushed off track stays off track
		// for a while), which is the sequential structure the Hybrid
		// Clustering/HMM predictor models.
		prevNoise = 0.6*prevNoise + gaussian(r, s.cfg.DeviationNoiseM)
		offset += prevNoise
		out[i].Pos = geo.Destination(wp.Pos, brg+90, offset)
		out[i].AltFt = wp.AltFt + gaussian(r, 150)
	}
	return out
}

// fly simulates the aircraft along its (deviated) waypoints and returns the
// emitted reports.
func (s *FlightSim) fly(r *rand.Rand, plan FlightPlan, v routeVariant, prof flightProfile) []mobility.Report {
	wps := s.actualWaypoints(r, plan, v)
	dt := s.cfg.ReportInterval.Seconds()
	pos := wps[0].Pos
	alt := wps[0].AltFt
	heading := geo.InitialBearing(pos, wps[1].Pos)
	speed := 0.0
	cruiseAlt := plan.CruiseFL * 100
	arrElev := wps[len(wps)-1].AltFt

	var out []mobility.Report
	wpIdx := 1
	ts := plan.DepTime
	const maxSteps = 6000 // safety bound ≈ 13h at 8s
	for step := 0; step < maxSteps; step++ {
		target := wps[wpIdx]
		distToGo := geo.Haversine(pos, target.Pos)
		// Total remaining distance decides the phase.
		remaining := distToGo
		for k := wpIdx; k < len(wps)-1; k++ {
			remaining += geo.Haversine(wps[k].Pos, wps[k+1].Pos)
		}
		descentDist := (alt - arrElev) / prof.descentFPS * speed * mobility.KnotsToMS * 1.1

		var targetAlt, targetSpeed float64
		switch {
		case remaining < math.Max(descentDist, 15_000):
			// Descent / approach.
			targetAlt = arrElev
			targetSpeed = prof.approachKn + (prof.cruiseKn-prof.approachKn)*clampF((alt-arrElev)/cruiseAlt, 0, 1)
		case alt < cruiseAlt-500:
			// Climb.
			targetAlt = cruiseAlt
			targetSpeed = prof.approachKn + (prof.cruiseKn-prof.approachKn)*clampF(alt/cruiseAlt, 0, 1)
		default:
			targetAlt = cruiseAlt
			targetSpeed = prof.cruiseKn
		}

		// Vertical motion: full rate far from the target level, then close
		// the gap smoothly so the rate tapers to zero at level-off.
		vRate := 0.0
		if alt < targetAlt-50 {
			vRate = math.Min(prof.climbFPS, (targetAlt-alt)/dt)
		} else if alt > targetAlt+50 {
			vRate = math.Max(-prof.descentFPS, (targetAlt-alt)/dt)
		}
		alt = clampF(alt+vRate*dt, math.Min(wps[0].AltFt, arrElev), cruiseAlt+2000)

		// Speed control.
		speed += clampF(targetSpeed-speed, -4*dt, 4*dt)

		// Lateral steering.
		want := geo.InitialBearing(pos, target.Pos)
		heading = geo.NormalizeHeading(heading + clampF(geo.AngleDiff(heading, want), -prof.turnRate*dt, prof.turnRate*dt))
		gs := speed * mobility.KnotsToMS
		if s.cfg.Weather != nil {
			u, w := s.cfg.Weather.Wind(pos, ts)
			gs += u*math.Sin(geo.Radians(heading)) + w*math.Cos(geo.Radians(heading))
		}
		pos = geo.Destination(pos, heading, math.Max(gs, 30)*dt)

		// Emit (with noise).
		noisy := geo.Destination(pos, r.Float64()*360, math.Abs(gaussian(r, s.cfg.PosNoiseM)))
		out = append(out, mobility.Report{
			ID:      plan.FlightID,
			Time:    ts,
			Pos:     noisy,
			AltFt:   alt,
			SpeedKn: speed,
			Heading: heading,
			VRateFS: vRate,
			Source:  "adsb",
		})
		ts = ts.Add(s.cfg.ReportInterval)

		// Waypoint advance. The arrival airport is only "reached" once the
		// aircraft has also descended to field elevation; until then it
		// holds near the field and continues the approach.
		if distToGo < 4_000 {
			if wpIdx < len(wps)-1 {
				wpIdx++
			} else if alt <= arrElev+100 && math.Abs(vRate) < 5 {
				break // touched down and levelled off
			}
		}
	}
	return out
}
