// Package gen provides the synthetic workload generators that stand in for
// the proprietary datAcron data sources of Table 1: AIS vessel traffic
// (terrestrial and satellite), ADS-B / IFS flight surveillance with flight
// plans, gridded weather fields, geographic areas (protected zones, fishing
// grounds, airspace sectors), port registries and mover registries.
//
// All generators are deterministic for a given seed, so every experiment in
// EXPERIMENTS.md is exactly reproducible. The generators aim to reproduce
// the kinematic regimes the downstream components react to — straight
// predictable legs, manoeuvres, stops, communication gaps, noise and
// outright erroneous records — rather than any particular real-world
// geography.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"datacron/internal/geo"
)

// DefaultStart is the epoch all generators use unless configured otherwise;
// it matches the month of the paper's aviation experiments (April 2016).
var DefaultStart = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

// Region presets approximating the two datAcron areas of interest.
var (
	// AegeanRegion is the maritime area of interest.
	AegeanRegion = geo.Rect{MinLon: 22.0, MinLat: 35.0, MaxLon: 28.0, MaxLat: 40.5}
	// IberiaRegion is the ATM area of interest (Spanish airspace).
	IberiaRegion = geo.Rect{MinLon: -10.0, MinLat: 35.5, MaxLon: 4.5, MaxLat: 44.5}
)

// rng returns a deterministic sub-generator for a namespace and index,
// so that entity i's behaviour does not depend on how many entities exist.
func rng(seed int64, ns string, idx int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range ns {
		h ^= int64(c)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h ^ int64(idx)*int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)))
}

// jitter returns v multiplied by a uniform factor in [1-f, 1+f].
func jitter(r *rand.Rand, v, f float64) float64 {
	return v * (1 + f*(2*r.Float64()-1))
}

// gaussian returns a normally distributed value with the given std dev.
func gaussian(r *rand.Rand, std float64) float64 { return r.NormFloat64() * std }

// randomPointIn returns a uniform random point inside rect.
func randomPointIn(r *rand.Rand, rect geo.Rect) geo.Point {
	return geo.Pt(
		rect.MinLon+r.Float64()*rect.Width(),
		rect.MinLat+r.Float64()*rect.Height(),
	)
}

// clampF bounds v to [lo, hi].
func clampF(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// idFor builds a stable mover identifier.
func idFor(prefix string, i int) string { return fmt.Sprintf("%s-%04d", prefix, i) }
