package rdfgen

import (
	"datacron/internal/geo"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/synopses"
)

// This file instantiates the generic framework for the concrete datAcron
// sources: critical-point streams and region shapefiles. Each
// instantiation is a (record adapter, bindings, template) triple — the
// pattern every new source follows.

// CriticalPointRecord adapts a synopsis critical point to a Record.
func CriticalPointRecord(seq int, cp synopses.CriticalPoint) Record {
	return Record{
		"id":      cp.ID,
		"seq":     seq,
		"time":    cp.Time,
		"wkt":     cp.Pos.WKT(),
		"speed":   cp.SpeedKn,
		"heading": cp.Heading,
		"alt":     cp.AltFt,
		"type":    string(cp.Type),
	}
}

// pointFields maps the fields CriticalPointRecord boxes, and the weather
// fields the annotations below read, to the PointRow values a PointRenderer
// reads in their place ("wkt" is the position it is rendered from).
var pointFields = map[string]pointField{
	"id":      fieldID,
	"seq":     fieldSeq,
	"time":    fieldTime,
	"wkt":     fieldPos,
	"speed":   fieldSpeed,
	"heading": fieldHeading,
	"alt":     fieldAlt,
	"type":    fieldType,
	"wind":    fieldWind,
	"wave":    fieldWave,
}

// The critical-point graph, declared once: CriticalPointGenerator
// instantiates it over the Record CriticalPointRecord boxes, and
// NewPointRenderer compiles it, with the weather annotations, into N-Triples
// lines over a typed PointRow.
var (
	criticalPointBindings = []Binding{
		BindIRI("traj", string(rdf.NSDatAcron)+"trajectory/%v", "id"),
		BindIRI("mover", string(rdf.NSDatAcron)+"mover/%v", "id"),
		BindIRI("node", string(rdf.NSDatAcron)+"node/%v/%v", "id", "seq"),
		BindIRI("event", string(rdf.NSDatAcron)+"event/%v/%v", "id", "seq"),
		BindTime("t", "time"),
		BindWKT("wkt", "wkt"),
		BindFloat("speed", "speed"),
		BindFloat("heading", "heading"),
		BindStr("etype", "type"),
	}
	criticalPointTemplate = Template{
		{S: V("traj"), P: C(rdf.RDFType), O: C(ontology.ClassTrajectory)},
		{S: V("traj"), P: C(ontology.PropOfMover), O: V("mover")},
		{S: V("traj"), P: C(ontology.PropHasNode), O: V("node")},
		{S: V("node"), P: C(rdf.RDFType), O: C(ontology.ClassSemanticNode)},
		{S: V("node"), P: C(ontology.PropAtTime), O: V("t")},
		{S: V("node"), P: C(ontology.PropAsWKT), O: V("wkt")},
		{S: V("node"), P: C(ontology.PropSpeed), O: V("speed")},
		{S: V("node"), P: C(ontology.PropHeading), O: V("heading")},
		{S: V("event"), P: C(rdf.RDFType), O: C(ontology.ClassEvent)},
		{S: V("event"), P: C(ontology.PropEventType), O: V("etype")},
		{S: V("event"), P: C(ontology.PropOccurs), O: V("node")},
	}

	// Weather enrichment: the semantic node annotated with the ambient
	// conditions at its position and time, when the run has a weather field.
	pointWeatherBindings = []Binding{
		BindFloat("wind", "wind"),
		BindFloat("wave", "wave"),
	}
	pointWeatherTemplate = Template{
		{S: V("node"), P: C(ontology.PropWindSpeed), O: V("wind")},
		{S: V("node"), P: C(ontology.PropWaveHeight), O: V("wave")},
	}
)

// CriticalPointGenerator returns the generator lifting critical points into
// the datAcron ontology (semantic nodes attached to trajectories).
func CriticalPointGenerator() *Generator {
	return NewGenerator(criticalPointBindings, criticalPointTemplate)
}

// RegionRecord adapts a named polygon to a Record, mimicking a shapefile
// row whose geometry is extracted as WKT by the connector.
func RegionRecord(id, kind string, poly *geo.Polygon) Record {
	return Record{"id": id, "kind": kind, "geom": poly}
}

// RegionGenerator returns the generator for geographic regions. It expects
// the connector to have computed the "wkt" field from the raw geometry,
// demonstrating the connector's value-generation role.
func RegionGenerator() *Generator {
	bindings := []Binding{
		BindIRI("region", string(rdf.NSDatAcron)+"region/%v", "id"),
		BindStr("kind", "kind"),
		BindStr("name", "id"),
		BindWKT("wkt", "wkt"),
	}
	template := Template{
		{S: V("region"), P: C(rdf.RDFType), O: C(ontology.ClassRegion)},
		{S: V("region"), P: C(ontology.PropEventType), O: V("kind")},
		{S: V("region"), P: C(ontology.PropHasName), O: V("name")},
		{S: V("region"), P: C(ontology.PropAsWKT), O: V("wkt")},
	}
	return NewGenerator(bindings, template)
}

// RegionConnector wraps region records with the WKT-extraction compute step.
func RegionConnector(records []Record) *Connector {
	return NewConnector(NewSliceSource(records)).
		Compute("wkt", func(r Record) any {
			if p, ok := r["geom"].(*geo.Polygon); ok {
				return p.WKT()
			}
			return nil
		})
}
