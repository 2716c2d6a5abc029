// Package geo provides the geometric and geodesic primitives used throughout
// the datAcron pipeline: geographic points, local ENU projections, polygons
// with point-in-polygon and distance predicates, bounding boxes, Well-Known
// Text (WKT) encoding and parsing, and the equi-grid space partitioning used
// by the link-discovery component.
//
// Coordinates follow the (longitude, latitude) convention in decimal degrees
// on WGS84. Distances are in metres unless stated otherwise.
package geo

import (
	"math"
	"strconv"
)

// EarthRadius is the mean Earth radius in metres (WGS84 authalic sphere).
const EarthRadius = 6_371_008.8

// Point is a geographic position in decimal degrees.
type Point struct {
	Lon float64
	Lat float64
}

// Pt is shorthand for constructing a Point.
func Pt(lon, lat float64) Point { return Point{Lon: lon, Lat: lat} }

// Valid reports whether the point lies within the legal WGS84 envelope.
func (p Point) Valid() bool {
	return p.Lon >= -180 && p.Lon <= 180 && p.Lat >= -90 && p.Lat <= 90 &&
		!math.IsNaN(p.Lon) && !math.IsNaN(p.Lat)
}

// String formats the point as "(lon, lat)" with six decimal places. It
// builds the string with strconv.AppendFloat on a stack-sized scratch buffer
// rather than fmt.Sprintf: String is reachable from hot-path logging and
// trace attributes, where Sprintf's reflection costs two extra allocations
// per call.
func (p Point) String() string {
	buf := make([]byte, 0, 48)
	buf = append(buf, '(')
	buf = strconv.AppendFloat(buf, p.Lon, 'f', 6, 64)
	buf = append(buf, ',', ' ')
	buf = strconv.AppendFloat(buf, p.Lat, 'f', 6, 64)
	buf = append(buf, ')')
	return string(buf)
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in metres.
func Haversine(a, b Point) float64 {
	la1, la2 := Radians(a.Lat), Radians(b.Lat)
	dLat := la2 - la1
	dLon := Radians(b.Lon - a.Lon)
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadius * math.Asin(math.Min(1, math.Sqrt(s)))
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from true north, in [0, 360).
func InitialBearing(a, b Point) float64 {
	la1, la2 := Radians(a.Lat), Radians(b.Lat)
	dLon := Radians(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dLon)
	deg := Degrees(math.Atan2(y, x))
	return math.Mod(deg+360, 360)
}

// Destination returns the point reached by travelling dist metres from p on
// the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, dist float64) Point {
	la1 := Radians(p.Lat)
	lo1 := Radians(p.Lon)
	brg := Radians(bearingDeg)
	dr := dist / EarthRadius
	la2 := math.Asin(math.Sin(la1)*math.Cos(dr) + math.Cos(la1)*math.Sin(dr)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(math.Sin(brg)*math.Sin(dr)*math.Cos(la1),
		math.Cos(dr)-math.Sin(la1)*math.Sin(la2))
	lon := Degrees(lo2)
	// Normalise longitude to [-180, 180].
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return Point{Lon: lon, Lat: Degrees(la2)}
}

// Interpolate returns the point a fraction f of the way from a to b along
// the great circle; f=0 yields a, f=1 yields b. It falls back to linear
// interpolation for antipodal or identical endpoints.
func Interpolate(a, b Point, f float64) Point {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	d := Haversine(a, b) / EarthRadius
	if d < 1e-12 {
		return a
	}
	la1, lo1 := Radians(a.Lat), Radians(a.Lon)
	la2, lo2 := Radians(b.Lat), Radians(b.Lon)
	sinD := math.Sin(d)
	if sinD == 0 {
		return a
	}
	p := math.Sin((1-f)*d) / sinD
	q := math.Sin(f*d) / sinD
	x := p*math.Cos(la1)*math.Cos(lo1) + q*math.Cos(la2)*math.Cos(lo2)
	y := p*math.Cos(la1)*math.Sin(lo1) + q*math.Cos(la2)*math.Sin(lo2)
	z := p*math.Sin(la1) + q*math.Sin(la2)
	lat := math.Atan2(z, math.Sqrt(x*x+y*y))
	lon := math.Atan2(y, x)
	return Point{Lon: Degrees(lon), Lat: Degrees(lat)}
}

// ENU is a local east-north plane projection anchored at an origin, used
// where Euclidean geometry is needed (motion models, matching). Coordinates
// are metres east (X) and north (Y) of the origin. The approximation is
// accurate for the regional extents handled by the pipeline (hundreds of km).
type ENU struct {
	Origin Point
	cosLat float64
}

// NewENU returns a local projection anchored at origin.
func NewENU(origin Point) *ENU {
	return &ENU{Origin: origin, cosLat: math.Cos(Radians(origin.Lat))}
}

// Forward projects a geographic point to local metres.
func (e *ENU) Forward(p Point) (x, y float64) {
	x = Radians(p.Lon-e.Origin.Lon) * EarthRadius * e.cosLat
	y = Radians(p.Lat-e.Origin.Lat) * EarthRadius
	return x, y
}

// Inverse unprojects local metres back to a geographic point.
func (e *ENU) Inverse(x, y float64) Point {
	lon := e.Origin.Lon + Degrees(x/(EarthRadius*e.cosLat))
	lat := e.Origin.Lat + Degrees(y/EarthRadius)
	return Point{Lon: lon, Lat: lat}
}

// AngleDiff returns the signed smallest difference b-a between two headings
// in degrees, in (-180, 180].
func AngleDiff(a, b float64) float64 {
	d := b - a
	// math.Mod returns its argument unchanged inside (-360, 360), the common
	// case, so the call is skipped there (NaN and ±Inf still take it).
	if !(d > -360 && d < 360) {
		d = math.Mod(d, 360)
	}
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

// NormalizeHeading maps any angle in degrees into [0, 360).
func NormalizeHeading(h float64) float64 {
	h = math.Mod(h, 360)
	if h < 0 {
		h += 360
	}
	return h
}
