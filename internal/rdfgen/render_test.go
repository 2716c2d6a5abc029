package rdfgen

import (
	"math"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/mobility"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/synopses"
)

// graphTriples is the oracle for a rendered graph: the generic generator's
// template triples, the two weather annotations on the node, and each link's
// Triple.
func graphTriples(row *PointRow) []rdf.Triple {
	triples := CriticalPointGenerator().Generate(CriticalPointRecord(row.Seq, *row.Point))
	if row.Weather {
		node := ontology.NodeIRI(row.Point.ID, row.Seq)
		triples = append(triples,
			rdf.Triple{S: node, P: ontology.PropWindSpeed, O: rdf.Float(row.Wind)},
			rdf.Triple{S: node, P: ontology.PropWaveHeight, O: rdf.Float(row.Wave)})
	}
	for _, l := range row.Links {
		triples = append(triples, l.Triple())
	}
	return triples
}

// checkGraph renders row and compares every line with the oracle's AppendNT
// and every key with its subject's Key.
func checkGraph(t *testing.T, r *PointRenderer, g *PointGraph, row *PointRow) {
	t.Helper()
	r.Render(g, row)
	want := graphTriples(row)
	if len(g.Triples) != len(want) {
		t.Fatalf("rendered %d triples, want %d", len(g.Triples), len(want))
	}
	for i, tr := range want {
		sp := g.Triples[i]
		if line, wantLine := g.Lines[sp.Start:sp.End], tr.AppendNT(nil); string(line) != string(wantLine) {
			t.Fatalf("line %d:\n got %s\nwant %s", i, line, wantLine)
		}
		if key, wantKey := g.Keys[sp.KeyStart:sp.KeyEnd], tr.S.Key(); string(key) != wantKey {
			t.Fatalf("key %d:\n got %q\nwant %q", i, key, wantKey)
		}
	}
}

// FuzzCriticalPointGraph: the typed renderer writes exactly the lines and
// keys the generic path gives — Generate(CriticalPointRecord(seq, cp)), the
// weather annotations and Link.Triple(), through AppendNT and S.Key().
func FuzzCriticalPointGraph(f *testing.F) {
	at := time.Date(2016, 4, 1, 3, 4, 5, 0, time.UTC).Unix()
	f.Add("227006760", "change_in_heading", int64(0), 23.5, 37.9, 11.5, 270.0, 0.0, at, int64(0), 0, true, 7.25, 1.5, uint8(2), "natura-3", "port-1")
	f.Add("", "", int64(math.MaxInt64), math.Copysign(0, -1), -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300, int64(0), int64(999999999), 19800, false, 0.0, 0.0, uint8(0), "", "")
	f.Add(`say "hi"\`, "stop\x00start", int64(42), math.Inf(1), math.NaN(), math.Inf(-1), 1e21, 123456789.125, at, int64(1), -3600, true, math.NaN(), math.Copysign(0, -1), uint8(3), "zone\xff", "ζ-9")
	f.Add("ναυς-1", "turn\n", int64(-7), 180.0, -90.0, 0.1, 359.99, 35000.0, int64(-62135596800), int64(500), 50400, true, 1e-7, 123.0, uint8(1), "a>b", "c")
	f.Fuzz(func(t *testing.T, id, typ string, seq int64, lon, lat, speed, heading, alt float64,
		sec, nsec int64, zone int, weather bool, wind, wave float64, nLinks uint8, target, other string) {
		cp := synopses.CriticalPoint{Type: synopses.CriticalType(typ), Report: mobility.Report{
			ID: id, Time: time.Unix(sec, nsec).In(time.FixedZone("", zone%(24*3600))),
			Pos: geo.Pt(lon, lat), SpeedKn: speed, Heading: heading, AltFt: alt,
		}}
		row := PointRow{Seq: int(seq), Point: &cp, Weather: weather, Wind: wind, Wave: wave}
		for i := 0; i < int(nLinks%4); i++ {
			l := linkdisc.Link{Source: id, Target: target, Relation: linkdisc.Within, Time: cp.Time}
			switch i {
			case 1:
				l.Relation, l.Target = linkdisc.NearTo, other
			case 2:
				l.Source = other // a source change starts a new key
			}
			row.Links = append(row.Links, l)
		}
		var g PointGraph
		r := NewPointRenderer()
		checkGraph(t, r, &g, &row)
		// A reused graph renders the same as a fresh one.
		row.Seq++
		checkGraph(t, r, &g, &row)
	})
}

// TestPointRenderAllocs: into a graph grown to a point's size, rendering a
// point with weather and links allocates nothing, and its keys string is
// the point's one allocation.
func TestPointRenderAllocs(t *testing.T) {
	cp := synopses.CriticalPoint{Type: synopses.ChangeInHeading, Report: mobility.Report{
		ID: "227006760", Time: t0.Add(90 * time.Minute), Pos: geo.Pt(23.51234, 37.98765), SpeedKn: 3.25, Heading: 181.5,
	}}
	links := []linkdisc.Link{
		{Source: cp.ID, Target: "natura-12", Relation: linkdisc.NearTo, Time: cp.Time},
		{Source: cp.ID, Target: "port-3", Relation: linkdisc.Within, Time: cp.Time},
	}
	row := PointRow{Seq: 4211, Point: &cp, Weather: true, Wind: 7.25, Wave: 1.5, Links: links}
	r := NewPointRenderer()
	var g PointGraph
	checkGraph(t, r, &g, &row)
	var keys string
	n := testing.AllocsPerRun(200, func() {
		row.Seq++
		r.Render(&g, &row)
		keys = string(g.Keys)
	})
	if n > 1 {
		t.Errorf("rendering a point made %v allocations, want at most 1 (its keys string)", n)
	}
	if len(keys) == 0 || len(g.Triples) != 15 {
		t.Fatalf("rendered %d triples and %d key bytes, want 15 and some", len(g.Triples), len(keys))
	}
}
