package rdfgen

import (
	"strings"
	"sync"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/synopses"
)

var t0 = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

func TestConnectorFilterAndCompute(t *testing.T) {
	src := NewSliceSource([]Record{
		{"mmsi": "a", "speed": 12.0},
		{"mmsi": "", "speed": 9.0}, // filtered: empty id
		{"mmsi": "b", "speed": 15.0},
	})
	c := NewConnector(src).
		Filter(func(r Record) bool { s, _ := r["mmsi"].(string); return s != "" }).
		Compute("speed_ms", func(r Record) any {
			if v, ok := r["speed"].(float64); ok {
				return v * 0.514444
			}
			return nil
		})
	var got []Record
	for {
		rec, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, rec)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
	if got[0]["speed_ms"].(float64) < 6 || got[0]["speed_ms"].(float64) > 7 {
		t.Errorf("computed field = %v", got[0]["speed_ms"])
	}
}

func TestConnectorDoesNotMutateSource(t *testing.T) {
	rec := Record{"x": 1}
	c := NewConnector(NewSliceSource([]Record{rec})).
		Compute("y", func(Record) any { return 2 })
	out, _ := c.Next()
	if out["y"] != 2 {
		t.Error("computed field missing")
	}
	if _, ok := rec["y"]; ok {
		t.Error("source record mutated")
	}
}

func TestGeneratorSkipsUnboundPatterns(t *testing.T) {
	g := NewGenerator(
		[]Binding{
			BindIRI("s", "http://x/%v", "id"),
			BindStr("name", "name"), // sometimes missing
		},
		Template{
			{S: V("s"), P: C(rdf.RDFType), O: C(rdf.IRI("http://x/Thing"))},
			{S: V("s"), P: C(rdf.IRI("http://x/name")), O: V("name")},
		},
	)
	full := g.Generate(Record{"id": "a", "name": "Alpha"})
	if len(full) != 2 {
		t.Errorf("full record triples = %d, want 2", len(full))
	}
	partial := g.Generate(Record{"id": "b"})
	if len(partial) != 1 {
		t.Errorf("partial record triples = %d, want 1 (name pattern skipped)", len(partial))
	}
	empty := g.Generate(Record{})
	if len(empty) != 0 {
		t.Errorf("empty record should yield no triples, got %d", len(empty))
	}
}

func TestBindingTypeMismatchesAreNil(t *testing.T) {
	cases := []struct {
		b   Binding
		rec Record
	}{
		{BindStr("v", "f"), Record{"f": 42}},
		{BindFloat("v", "f"), Record{"f": "oops"}},
		{BindTime("v", "f"), Record{"f": "2016"}},
		{BindWKT("v", "f"), Record{"f": 3.0}},
		{BindIRI("v", "http://x/%v", "f"), Record{}},
	}
	for i, c := range cases {
		if got := c.b.From(c.rec); got != nil {
			t.Errorf("case %d: expected nil, got %v", i, got)
		}
	}
	// Int variants of BindFloat.
	if got := BindFloat("v", "f").From(Record{"f": 7}); got == nil {
		t.Error("int should bind as float")
	}
	if got := BindFloat("v", "f").From(Record{"f": int64(7)}); got == nil {
		t.Error("int64 should bind as float")
	}
}

func TestFuncTermSpec(t *testing.T) {
	g := NewGenerator(
		[]Binding{BindStr("name", "name")},
		Template{
			{
				S: F(func(v Vars) rdf.Term {
					lit, ok := v["name"].(rdf.Literal)
					if !ok {
						return nil
					}
					return rdf.IRI("http://x/" + strings.ToLower(lit.Value))
				}),
				P: C(rdf.RDFType),
				O: C(rdf.IRI("http://x/Thing")),
			},
		},
	)
	out := g.Generate(Record{"name": "Alpha"})
	if len(out) != 1 || out[0].S != rdf.IRI("http://x/alpha") {
		t.Errorf("func spec output = %v", out)
	}
}

func TestCriticalPointGenerator(t *testing.T) {
	cp := synopses.CriticalPoint{
		Report: mobility.Report{
			ID: "mmsi-1", Time: t0, Pos: geo.Pt(23.6, 37.9), SpeedKn: 11.5, Heading: 88,
		},
		Type: synopses.ChangeInHeading,
	}
	g := CriticalPointGenerator()
	triples := g.Generate(CriticalPointRecord(7, cp))
	graph := rdf.NewGraph()
	graph.AddAll(triples)
	node := ontology.NodeIRI("mmsi-1", 7)
	if !graph.Has(rdf.Triple{S: ontology.TrajectoryIRI("mmsi-1"), P: ontology.PropHasNode, O: node}) {
		t.Error("trajectory → node link missing")
	}
	if got := graph.Objects(node, ontology.PropSpeed); len(got) != 1 {
		t.Error("speed literal missing")
	}
	evs := graph.Subjects(ontology.PropOccurs, node)
	if len(evs) != 1 {
		t.Fatalf("event instances = %d", len(evs))
	}
	if got := graph.Objects(evs[0], ontology.PropEventType); len(got) != 1 ||
		got[0].(rdf.Literal).Value != string(synopses.ChangeInHeading) {
		t.Errorf("event type = %v", got)
	}
}

func TestRegionGeneratorWithConnector(t *testing.T) {
	poly := geo.RegularPolygon(geo.Pt(24, 38), 5_000, 6)
	conn := RegionConnector([]Record{RegionRecord("natura-1", "protected", poly)})
	g := RegionGenerator()
	var all []rdf.Triple
	g.Run(conn, func(ts []rdf.Triple) { all = append(all, ts...) })
	graph := rdf.NewGraph()
	graph.AddAll(all)
	region := ontology.RegionIRI("natura-1")
	wkts := graph.Objects(region, ontology.PropAsWKT)
	if len(wkts) != 1 {
		t.Fatalf("wkt objects = %d", len(wkts))
	}
	parsed, err := geo.ParseWKT(wkts[0].(rdf.Literal).Value)
	if err != nil {
		t.Fatalf("WKT should round-trip: %v", err)
	}
	if _, ok := parsed.(*geo.Polygon); !ok {
		t.Error("region geometry should parse as polygon")
	}
}

func TestGeneratorThroughputCounters(t *testing.T) {
	records := make([]Record, 500)
	for i := range records {
		records[i] = Record{"id": i}
	}
	g := NewGenerator(
		[]Binding{BindIRI("s", "http://x/%v", "id")},
		Template{{S: V("s"), P: C(rdf.RDFType), O: C(rdf.IRI("http://x/T"))}},
	)
	g.Run(NewConnector(NewSliceSource(records)), nil)
	recs, trips, elapsed, rate := g.Throughput()
	if recs != 500 || trips != 500 {
		t.Errorf("counters = %d recs, %d triples", recs, trips)
	}
	if elapsed <= 0 || rate <= 0 {
		t.Errorf("elapsed %v rate %v", elapsed, rate)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	records := make([]Record, 1000)
	for i := range records {
		records[i] = Record{"id": i, "v": float64(i) * 1.5}
	}
	mkGen := func() *Generator {
		return NewGenerator(
			[]Binding{
				BindIRI("s", "http://x/%v", "id"),
				BindFloat("v", "v"),
			},
			Template{
				{S: V("s"), P: C(rdf.RDFType), O: C(rdf.IRI("http://x/T"))},
				{S: V("s"), P: C(rdf.IRI("http://x/v")), O: V("v")},
			},
		)
	}
	seq := rdf.NewGraph()
	mkGen().Run(NewConnector(NewSliceSource(records)), func(ts []rdf.Triple) { seq.AddAll(ts) })

	par := rdf.NewGraph()
	var mu sync.Mutex
	mkGen().RunParallel(NewConnector(NewSliceSource(records)), 8, func(ts []rdf.Triple) {
		mu.Lock()
		par.AddAll(ts)
		mu.Unlock()
	})
	if seq.Len() != par.Len() {
		t.Fatalf("parallel %d != sequential %d", par.Len(), seq.Len())
	}
	for _, tr := range seq.Triples() {
		if !par.Has(tr) {
			t.Fatalf("parallel graph missing %s", tr)
		}
	}
}

// referenceGenerate is Generate as it was before variables were compiled to
// slots: one Vars map per record, every slot resolved through it. The
// compiled generator must produce exactly what it does.
func referenceGenerate(bindings []Binding, template Template, rec Record) []rdf.Triple {
	vars := Vars{}
	for _, b := range bindings {
		if t := b.From(rec); t != nil {
			vars[b.Var] = t
		}
	}
	resolve := func(ts TermSpec) rdf.Term {
		switch {
		case ts.konst != nil:
			return ts.konst
		case ts.v != "":
			return vars[ts.v]
		case ts.fn != nil:
			return ts.fn(vars)
		}
		return nil
	}
	var out []rdf.Triple
	for _, tp := range template {
		s, p, o := resolve(tp.S), resolve(tp.P), resolve(tp.O)
		if s != nil && p != nil && o != nil {
			out = append(out, rdf.Triple{S: s, P: p, O: o})
		}
	}
	return out
}

func TestCompiledGeneratorMatchesReference(t *testing.T) {
	type stringer struct{ a, b int }
	bindings := []Binding{
		BindIRI("s", "http://x/%v/%v", "id", "seq"),
		BindIRI("padded", "http://x/%05d", "seq"),        // not a %v pattern: fmt formats it
		BindIRI("pct", "http://x/100%%/%v", "id"),        // %% : fmt formats it
		BindIRI("short", "http://x/%v", "id", "seq"),     // verb count ≠ field count
		BindIRI("any", "http://x/%v/%v", "speed", "obj"), // float and struct fields
		BindStr("name", "name"),
		BindStr("name", "alias"), // same variable twice: the later non-nil term wins
		BindFloat("speed", "speed"),
		BindTime("t", "time"),
		BindStr("", "name"), // the empty name is bindable but V("") never resolves
	}
	template := Template{
		{S: V("s"), P: C(rdf.RDFType), O: C(rdf.IRI("http://x/Thing"))},
		{S: V("s"), P: C(rdf.IRI("http://x/name")), O: V("name")},
		{S: V("s"), P: C(rdf.IRI("http://x/speed")), O: V("speed")},
		{S: V("s"), P: C(rdf.IRI("http://x/at")), O: V("t")},
		{S: V("padded"), P: C(rdf.IRI("http://x/sameAs")), O: V("pct")},
		{S: V("short"), P: C(rdf.IRI("http://x/sameAs")), O: V("any")},
		{S: V("s"), P: C(rdf.IRI("http://x/ghost")), O: V("never-bound")},
		{S: V("s"), P: C(rdf.IRI("http://x/blank")), O: V("")},
		{S: V("s"), P: C(rdf.IRI("http://x/label")), O: F(func(v Vars) rdf.Term {
			// Sees every bound variable, and only those.
			lit, ok := v["name"].(rdf.Literal)
			if !ok {
				return nil
			}
			_, hasSpeed := v["speed"]
			return rdf.Str(strings.ToUpper(lit.Value) + map[bool]string{true: "+speed"}[hasSpeed])
		})},
		{},
	}
	records := []Record{
		{"id": "a", "seq": 7, "name": "Alpha", "alias": "Al", "speed": 12.5, "time": t0, "obj": stringer{1, 2}},
		{"id": "b", "seq": 8, "name": "Beta", "speed": 3},
		{"id": "c", "seq": int64(9), "alias": "Cee"},
		{"id": 42, "seq": "x", "name": 1.0},
		{"seq": 1, "name": "no id"},
		{},
	}
	g := NewGenerator(bindings, template)
	var reused []rdf.Triple
	for i, rec := range records {
		want := referenceGenerate(bindings, template, rec)
		got := g.Generate(rec)
		reused = g.AppendTriples(reused[:0], rec)
		for name, have := range map[string][]rdf.Triple{"Generate": got, "AppendTriples": reused} {
			if len(have) != len(want) {
				t.Fatalf("record %d: %s made %d triples, reference %d:\n%v\n%v", i, name, len(have), len(want), have, want)
			}
			for j := range want {
				if have[j] != want[j] {
					t.Errorf("record %d triple %d: %s = %v, reference %v", i, j, name, have[j], want[j])
				}
			}
		}
	}
	if len(referenceGenerate(bindings, template, records[0])) != 7 {
		t.Error("the full record should instantiate every pattern but the ghost, blank and empty ones")
	}
	// Compiling works on a copy: the caller's template is left as built.
	if template[0].S.slot != 0 || template[6].O.slot != 0 {
		t.Error("NewGenerator wrote slot indices into the caller's template")
	}
}
