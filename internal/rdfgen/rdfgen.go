// Package rdfgen implements the generic RDF generation framework of Section
// 4.2.3: data connectors that clean, filter and derive values from source
// records, and triple generators that convert each record into triples by
// instantiating a graph template over a variable vector. The same machinery
// is reused for every (streaming or archival) source, needs no underlying
// SPARQL engine, and is embarrassingly parallel across records.
package rdfgen

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"datacron/internal/rdf"
)

// Record is a raw source record: named fields of arbitrary value.
type Record map[string]any

// Source yields records one at a time; ok=false signals exhaustion.
type Source interface {
	Next() (Record, bool)
}

// SliceSource replays a fixed record slice.
type SliceSource struct {
	records []Record
	pos     int
}

// NewSliceSource wraps records in a Source.
func NewSliceSource(records []Record) *SliceSource {
	return &SliceSource{records: records}
}

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.records) {
		return nil, false
	}
	r := s.records[s.pos]
	s.pos++
	return r, true
}

// Connector is the framework's data connector: it pulls records from a
// source, applies basic cleaning filters, and computes derived fields (e.g.
// extracting a WKT string from a raw geometry) before triple generation.
type Connector struct {
	src      Source
	filters  []func(Record) bool
	computes []compute
}

type compute struct {
	field string
	fn    func(Record) any
}

// NewConnector wraps a source.
func NewConnector(src Source) *Connector {
	return &Connector{src: src}
}

// Filter adds a predicate; records failing any predicate are dropped.
func (c *Connector) Filter(pred func(Record) bool) *Connector {
	c.filters = append(c.filters, pred)
	return c
}

// Compute adds a derived field evaluated on each record (after filters, in
// registration order). A nil result leaves the record without the field.
func (c *Connector) Compute(field string, fn func(Record) any) *Connector {
	c.computes = append(c.computes, compute{field: field, fn: fn})
	return c
}

// Next returns the next record that passes all filters, with computed
// fields added. It copies the record so sources are never mutated.
func (c *Connector) Next() (Record, bool) {
	for {
		rec, ok := c.src.Next()
		if !ok {
			return nil, false
		}
		pass := true
		for _, f := range c.filters {
			if !f(rec) {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		out := make(Record, len(rec)+len(c.computes))
		for k, v := range rec {
			out[k] = v
		}
		for _, cp := range c.computes {
			if v := cp.fn(out); v != nil {
				out[cp.field] = v
			}
		}
		return out, true
	}
}

// Vars is the variable vector of one record: variable name -> RDF term.
// Unbound variables are absent.
type Vars map[string]rdf.Term

// Binding populates one variable of the vector from a record. Returning a
// nil Term leaves the variable unbound.
type Binding struct {
	Var  string
	From func(Record) rdf.Term

	// kind and fields declare what a field binding reads, and segs are a
	// BindIRI pattern's literal segments, so that NewPointRenderer can
	// compile the binding over a typed row. Zero for a BindIRI pattern that
	// fmt formats.
	kind   bindKind
	fields []string
	segs   []string
}

// bindKind is the term a field binding makes.
type bindKind uint8

const (
	bindOpaque bindKind = iota // a BindIRI pattern fmt formats: nothing to compile
	bindStr
	bindFloat
	bindTime
	bindWKT
	bindIRI
)

// Field bindings: each returns nil for missing or mistyped fields, so that
// patterns referencing the variable are skipped rather than corrupted.

// BindStr binds a string field as a plain literal.
func BindStr(v, field string) Binding {
	return Binding{Var: v, kind: bindStr, fields: []string{field}, From: func(r Record) rdf.Term {
		if s, ok := r[field].(string); ok {
			return rdf.Str(s)
		}
		return nil
	}}
}

// BindFloat binds a numeric field as an xsd:double literal.
func BindFloat(v, field string) Binding {
	return Binding{Var: v, kind: bindFloat, fields: []string{field}, From: func(r Record) rdf.Term {
		switch x := r[field].(type) {
		case float64:
			return rdf.Float(x)
		case int:
			return rdf.Float(float64(x))
		case int64:
			return rdf.Float(float64(x))
		default:
			return nil
		}
	}}
}

// BindTime binds a time.Time field as an xsd:dateTime literal.
func BindTime(v, field string) Binding {
	return Binding{Var: v, kind: bindTime, fields: []string{field}, From: func(r Record) rdf.Term {
		if t, ok := r[field].(time.Time); ok {
			return rdf.Time(t)
		}
		return nil
	}}
}

// BindWKT binds a string field as a geosparql wktLiteral.
func BindWKT(v, field string) Binding {
	return Binding{Var: v, kind: bindWKT, fields: []string{field}, From: func(r Record) rdf.Term {
		if s, ok := r[field].(string); ok {
			return rdf.WKT(s)
		}
		return nil
	}}
}

// BindIRI binds an IRI minted by formatting fields into a pattern, e.g.
// BindIRI("node", "http://…/node/%v/%v", "id", "seq").
//
// A pattern made of literal text and one %v per field — every pattern in
// this repository — is split once, here, into its literal segments; per
// record the IRI is then appended piecewise, string and int fields through
// strconv-style appends and any other value through fmt, which renders it
// as %v would. Any other pattern is formatted by fmt.Sprintf per record.
func BindIRI(v, format string, fields ...string) Binding {
	segs := splitVerbs(format, len(fields))
	if segs == nil {
		return Binding{Var: v, From: func(r Record) rdf.Term {
			args := make([]any, len(fields))
			for i, f := range fields {
				x, ok := r[f]
				if !ok {
					return nil
				}
				args[i] = x
			}
			return rdf.IRI(fmt.Sprintf(format, args...))
		}}
	}
	return Binding{Var: v, kind: bindIRI, fields: fields, segs: segs, From: func(r Record) rdf.Term {
		var buf [128]byte
		iri := append(buf[:0], segs[0]...)
		for i, f := range fields {
			x, ok := r[f]
			if !ok {
				return nil
			}
			switch x := x.(type) {
			case string:
				iri = append(iri, x...)
			case int:
				iri = strconv.AppendInt(iri, int64(x), 10)
			default:
				iri = fmt.Append(iri, x)
			}
			iri = append(iri, segs[i+1]...)
		}
		return rdf.IRI(iri)
	}}
}

// splitVerbs splits a format made only of literal text and exactly n %v
// verbs into its n+1 literal segments. Any other format (another verb, a
// flag, %%, a verb count that does not match n) yields nil: fmt keeps it.
func splitVerbs(format string, n int) []string {
	segs := strings.Split(format, "%v")
	if len(segs) != n+1 || strings.Contains(strings.Join(segs, ""), "%") {
		return nil
	}
	return segs
}

// TermSpec is one slot of a triple pattern: a constant term, a variable
// reference, or a function of the variable vector.
type TermSpec struct {
	konst rdf.Term
	v     string
	fn    func(Vars) rdf.Term
	// slot is v's index in the generator's per-record term vector, or -1
	// when no binding populates v. Set by NewGenerator on its own copy of
	// the template, so resolving a variable is an index, not a map lookup.
	slot int
}

// C makes a constant TermSpec.
func C(t rdf.Term) TermSpec { return TermSpec{konst: t} }

// V makes a variable-reference TermSpec.
func V(name string) TermSpec { return TermSpec{v: name} }

// F makes a function TermSpec evaluated over the variable vector.
func F(fn func(Vars) rdf.Term) TermSpec { return TermSpec{fn: fn} }

// resolve returns the term for this slot, or nil when unresolvable. terms is
// the record's term vector; vars is its map form, built only for templates
// with an F slot.
func (ts *TermSpec) resolve(terms []rdf.Term, vars Vars) rdf.Term {
	switch {
	case ts.konst != nil:
		return ts.konst
	case ts.v != "":
		if ts.slot < 0 {
			return nil
		}
		return terms[ts.slot]
	case ts.fn != nil:
		return ts.fn(vars)
	default:
		return nil
	}
}

// TriplePattern is one template triple.
type TriplePattern struct {
	S, P, O TermSpec
}

// Template is a graph template: the triple patterns every record instantiates.
type Template []TriplePattern

// Generator converts records into triples: the framework's triple generator.
type Generator struct {
	bindings []Binding
	template Template // private copy with every V slot resolved to an index

	// Variables are numbered once, at construction: bindSlot[i] is the slot
	// binding i populates (bindings naming the same variable share one, the
	// later non-nil term winning), slotVars[s] is slot s's variable name.
	bindSlot []int
	slotVars []string
	needVars bool // some pattern has an F slot, which takes the Vars map

	mu      sync.Mutex
	records int64
	triples int64
	elapsed time.Duration
}

// NewGenerator builds a triple generator from bindings and a template,
// compiling variable references to slot indices.
func NewGenerator(bindings []Binding, template Template) *Generator {
	g := &Generator{
		bindings: bindings,
		template: append(Template(nil), template...),
		bindSlot: make([]int, len(bindings)),
	}
	slots := make(map[string]int, len(bindings))
	for i, b := range bindings {
		s, ok := slots[b.Var]
		if !ok {
			s = len(g.slotVars)
			slots[b.Var] = s
			g.slotVars = append(g.slotVars, b.Var)
		}
		g.bindSlot[i] = s
	}
	for i := range g.template {
		tp := &g.template[i]
		g.compile(&tp.S, slots)
		g.compile(&tp.P, slots)
		g.compile(&tp.O, slots)
	}
	return g
}

// compile resolves one template slot against the variable numbering.
func (g *Generator) compile(ts *TermSpec, slots map[string]int) {
	ts.slot = -1
	if s, ok := slots[ts.v]; ok {
		ts.slot = s
	}
	if ts.fn != nil {
		g.needVars = true
	}
}

// Generate instantiates the template for one record. Patterns whose subject,
// predicate or object is unresolvable are skipped silently — this is what
// lets one template serve heterogeneous records.
func (g *Generator) Generate(rec Record) []rdf.Triple {
	return g.AppendTriples(make([]rdf.Triple, 0, len(g.template)), rec)
}

// AppendTriples is Generate appending to dst, for a caller that reuses one
// output slice across records.
func (g *Generator) AppendTriples(dst []rdf.Triple, rec Record) []rdf.Triple {
	var buf [16]rdf.Term
	terms := buf[:]
	if len(g.slotVars) > len(buf) {
		terms = make([]rdf.Term, len(g.slotVars))
	}
	for i, b := range g.bindings {
		if t := b.From(rec); t != nil {
			terms[g.bindSlot[i]] = t
		}
	}
	var vars Vars
	if g.needVars {
		vars = make(Vars, len(g.slotVars))
		for s, name := range g.slotVars {
			if terms[s] != nil {
				vars[name] = terms[s]
			}
		}
	}
	for i := range g.template {
		tp := &g.template[i]
		s := tp.S.resolve(terms, vars)
		p := tp.P.resolve(terms, vars)
		o := tp.O.resolve(terms, vars)
		if s == nil || p == nil || o == nil {
			continue
		}
		dst = append(dst, rdf.Triple{S: s, P: p, O: o})
	}
	return dst
}

// Run drains a connector through the generator, invoking sink for each
// record's triples, and accumulates throughput counters.
func (g *Generator) Run(c *Connector, sink func([]rdf.Triple)) {
	start := time.Now()
	var recs, trips int64
	for {
		rec, ok := c.Next()
		if !ok {
			break
		}
		ts := g.Generate(rec)
		recs++
		trips += int64(len(ts))
		if sink != nil {
			sink(ts)
		}
	}
	g.mu.Lock()
	g.records += recs
	g.triples += trips
	g.elapsed += time.Since(start)
	g.mu.Unlock()
}

// RunParallel processes a connector with n workers, preserving no particular
// order (the knowledge graph is a set). The connector is drained by a single
// goroutine; generation and sinking are parallel. sink must be safe for
// concurrent use.
func (g *Generator) RunParallel(c *Connector, n int, sink func([]rdf.Triple)) {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	ch := make(chan Record, n*4)
	var wg sync.WaitGroup
	var recs, trips int64
	var cnt sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var myRecs, myTrips int64
			for rec := range ch {
				ts := g.Generate(rec)
				myRecs++
				myTrips += int64(len(ts))
				if sink != nil {
					sink(ts)
				}
			}
			cnt.Lock()
			recs += myRecs
			trips += myTrips
			cnt.Unlock()
		}()
	}
	for {
		rec, ok := c.Next()
		if !ok {
			break
		}
		ch <- rec
	}
	close(ch)
	wg.Wait()
	g.mu.Lock()
	g.records += recs
	g.triples += trips
	g.elapsed += time.Since(start)
	g.mu.Unlock()
}

// Throughput reports the accumulated counters: records and triples
// generated, wall time, and records/second.
func (g *Generator) Throughput() (records, triples int64, elapsed time.Duration, recPerSec float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	records, triples, elapsed = g.records, g.triples, g.elapsed
	if elapsed > 0 {
		recPerSec = float64(records) / elapsed.Seconds()
	}
	return records, triples, elapsed, recPerSec
}
