package gen

import (
	"math"
	"math/rand"
	"time"

	"datacron/internal/geo"
)

// WeatherField is a synthetic, smooth, time-evolving weather field standing
// in for the paper's sea-state and weather-forecast sources. It is built
// from a fixed number of random Fourier components, so it is deterministic
// per seed, continuous in space and time, and cheap to evaluate anywhere —
// which is all the enrichment and prediction components require.
type WeatherField struct {
	start time.Time
	comps []fourierComp
}

type fourierComp struct {
	kLon, kLat     float64 // spatial frequency (cycles per degree)
	omega          float64 // temporal frequency (cycles per hour)
	phase          float64
	ampWind        float64 // m/s contribution
	ampTemp        float64 // °C contribution
	dir            float64 // wind direction contribution (radians)
	cosDir, sinDir float64 // math.Cos(dir), math.Sin(dir), computed once
}

// NewWeatherField builds a field with the given seed anchored at start.
func NewWeatherField(seed int64, start time.Time) *WeatherField {
	r := rand.New(rand.NewSource(seed))
	const n = 12
	comps := make([]fourierComp, n)
	for i := range comps {
		comps[i] = fourierComp{
			kLon:    (r.Float64() - 0.5) * 0.8,
			kLat:    (r.Float64() - 0.5) * 0.8,
			omega:   r.Float64() * 0.3,
			phase:   r.Float64() * 2 * math.Pi,
			ampWind: 1.5 + r.Float64()*2.5,
			ampTemp: 1 + r.Float64()*2,
			dir:     r.Float64() * 2 * math.Pi,
		}
		comps[i].cosDir, comps[i].sinDir = math.Cos(comps[i].dir), math.Sin(comps[i].dir)
	}
	return &WeatherField{start: start, comps: comps}
}

// hours is t's offset from the field's anchor, the time axis of every
// component's phase.
func (w *WeatherField) hours(t time.Time) float64 { return t.Sub(w.start).Hours() }

func (c *fourierComp) phaseAt(p geo.Point, hours float64) float64 {
	return 2*math.Pi*(c.kLon*p.Lon+c.kLat*p.Lat+c.omega*hours) + c.phase
}

// Wind returns the wind vector (u east, v north) in m/s at a point and time.
func (w *WeatherField) Wind(p geo.Point, t time.Time) (u, v float64) {
	hours := w.hours(t)
	for i := range w.comps {
		c := &w.comps[i]
		s := math.Sin(c.phaseAt(p, hours))
		u += c.ampWind * s * c.cosDir
		v += c.ampWind * s * c.sinDir
	}
	return u, v
}

// WindSpeed returns the wind magnitude in m/s at a point and time.
func (w *WeatherField) WindSpeed(p geo.Point, t time.Time) float64 {
	u, v := w.Wind(p, t)
	return math.Hypot(u, v)
}

// Temperature returns a synthetic air temperature in °C, combining a
// latitude gradient, a diurnal cycle and the Fourier noise.
func (w *WeatherField) Temperature(p geo.Point, t time.Time) float64 {
	base := 25 - 0.5*math.Abs(p.Lat)
	diurnal := 4 * math.Sin(2*math.Pi*float64(t.Hour())/24)
	hours := w.hours(t)
	noise := 0.0
	for i := range w.comps {
		c := &w.comps[i]
		noise += c.ampTemp * math.Sin(c.phaseAt(p, hours)+1.3)
	}
	return base + diurnal + noise/3
}

// WaveHeight returns a synthetic significant wave height in metres derived
// from the wind field (maritime sea-state substitute).
func (w *WeatherField) WaveHeight(p geo.Point, t time.Time) float64 {
	return waveHeight(w.WindSpeed(p, t))
}

// WindAndWave returns WindSpeed and WaveHeight at a point and time from one
// evaluation of the wind field.
func (w *WeatherField) WindAndWave(p geo.Point, t time.Time) (wind, wave float64) {
	wind = w.WindSpeed(p, t)
	return wind, waveHeight(wind)
}

// waveHeight is the sea state a wind speed of ws m/s raises.
func waveHeight(ws float64) float64 { return clampF(0.2+ws*ws/60, 0, 12) }

// Observation is a gridded weather sample, the unit record of the weather
// archival sources.
type Observation struct {
	Time       time.Time
	Pos        geo.Point
	WindU      float64
	WindV      float64
	TempC      float64
	WaveHeight float64
}

// Sample produces gridded observations over the region every step for the
// given duration, at gridN×gridN sample points — the batch "forecast files"
// of Table 1.
func (w *WeatherField) Sample(region geo.Rect, gridN int, start time.Time, dur, step time.Duration) []Observation {
	if gridN < 1 {
		gridN = 1
	}
	var out []Observation
	for ts := start; ts.Before(start.Add(dur)); ts = ts.Add(step) {
		for i := 0; i < gridN; i++ {
			for j := 0; j < gridN; j++ {
				p := geo.Pt(
					region.MinLon+(float64(i)+0.5)*region.Width()/float64(gridN),
					region.MinLat+(float64(j)+0.5)*region.Height()/float64(gridN),
				)
				u, v := w.Wind(p, ts)
				out = append(out, Observation{
					Time: ts, Pos: p, WindU: u, WindV: v,
					TempC:      w.Temperature(p, ts),
					WaveHeight: w.WaveHeight(p, ts),
				})
			}
		}
	}
	return out
}
