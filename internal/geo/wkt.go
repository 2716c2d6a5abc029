package geo

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements a pragmatic subset of the OGC Well-Known Text
// representation: POINT and POLYGON (single exterior ring), the two geometry
// classes exchanged between the datAcron RDF generators, the link-discovery
// component and the knowledge-graph store.

// Geometry is a WKT-representable geometry: either a Point or a *Polygon.
type Geometry interface {
	WKT() string
	Bounds() Rect
}

// WKT renders the point as "POINT (lon lat)".
func (p Point) WKT() string {
	var buf [64]byte
	return string(p.AppendWKT(buf[:0]))
}

// AppendWKT appends the point's WKT, as WKT renders it, to dst.
func (p Point) AppendWKT(dst []byte) []byte {
	dst = append(dst, "POINT ("...)
	dst = strconv.AppendFloat(dst, p.Lon, 'f', -1, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, p.Lat, 'f', -1, 64)
	return append(dst, ')')
}

// Bounds returns the degenerate rectangle covering only p.
func (p Point) Bounds() Rect {
	return Rect{MinLon: p.Lon, MinLat: p.Lat, MaxLon: p.Lon, MaxLat: p.Lat}
}

// WKT renders the polygon as "POLYGON ((lon lat, ...))" with an explicit
// closing vertex, as required by the spec.
func (p *Polygon) WKT() string {
	var b strings.Builder
	b.WriteString("POLYGON ((")
	for i, v := range p.ring {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(fmtCoord(v.Lon))
		b.WriteByte(' ')
		b.WriteString(fmtCoord(v.Lat))
	}
	b.WriteString(", ")
	b.WriteString(fmtCoord(p.ring[0].Lon))
	b.WriteByte(' ')
	b.WriteString(fmtCoord(p.ring[0].Lat))
	b.WriteString("))")
	return b.String()
}

func fmtCoord(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// ParseWKT parses a POINT or POLYGON WKT string.
func ParseWKT(s string) (Geometry, error) {
	t := strings.TrimSpace(s)
	upper := strings.ToUpper(t)
	switch {
	case strings.HasPrefix(upper, "POINT"):
		return parseWKTPoint(t[len("POINT"):])
	case strings.HasPrefix(upper, "POLYGON"):
		return parseWKTPolygon(t[len("POLYGON"):])
	case strings.HasPrefix(upper, "LINESTRING"):
		return parseWKTLineString(t[len("LINESTRING"):])
	default:
		return nil, fmt.Errorf("geo: unsupported WKT geometry %q", head(t))
	}
}

func head(s string) string {
	if i := strings.IndexAny(s, " ("); i > 0 {
		return s[:i]
	}
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

func parseWKTPoint(body string) (Geometry, error) {
	inner, err := stripParens(body)
	if err != nil {
		return nil, fmt.Errorf("geo: POINT: %w", err)
	}
	p, err := parseCoord(inner)
	if err != nil {
		return nil, fmt.Errorf("geo: POINT: %w", err)
	}
	return p, nil
}

func parseWKTPolygon(body string) (Geometry, error) {
	outer, err := stripParens(body)
	if err != nil {
		return nil, fmt.Errorf("geo: POLYGON: %w", err)
	}
	// Only the exterior ring is read; interior rings (holes) are rejected.
	ringStr, rest, err := takeParenGroup(outer)
	if err != nil {
		return nil, fmt.Errorf("geo: POLYGON: %w", err)
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("geo: POLYGON: interior rings not supported")
	}
	parts := strings.Split(ringStr, ",")
	ring := make([]Point, 0, len(parts))
	for _, part := range parts {
		p, err := parseCoord(part)
		if err != nil {
			return nil, fmt.Errorf("geo: POLYGON: %w", err)
		}
		ring = append(ring, p)
	}
	return NewPolygon(ring)
}

// stripParens removes one balanced layer of parentheses around s.
func stripParens(s string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return "", fmt.Errorf("expected parenthesised body, got %q", head(s))
	}
	return s[1 : len(s)-1], nil
}

// takeParenGroup returns the contents of the first (...) group in s and the
// remainder after it.
func takeParenGroup(s string) (group, rest string, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") {
		return "", "", fmt.Errorf("expected '(', got %q", head(s))
	}
	depth := 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return s[1:i], s[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unbalanced parentheses")
}

func parseCoord(s string) (Point, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) < 2 {
		return Point{}, fmt.Errorf("coordinate needs lon and lat, got %q", s)
	}
	lon, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Point{}, fmt.Errorf("bad longitude %q", fields[0])
	}
	lat, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Point{}, fmt.Errorf("bad latitude %q", fields[1])
	}
	return Point{Lon: lon, Lat: lat}, nil
}
