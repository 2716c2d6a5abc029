package rdfgen

import (
	"strconv"
	"time"

	"datacron/internal/linkdisc"
	"datacron/internal/rdf"
	"datacron/internal/synopses"
)

// PointRow is the typed variable vector of one critical point's graph: the
// values CriticalPointRecord boxes into a Record, read in place, plus the
// weather at the point and the links discovered at it.
type PointRow struct {
	Seq   int
	Point *synopses.CriticalPoint
	// Weather says the graph carries the wind and wave annotations.
	Weather    bool
	Wind, Wave float64
	Links      []linkdisc.Link
}

// pointField names one typed value of a PointRow.
type pointField uint8

const (
	fieldID pointField = iota
	fieldSeq
	fieldTime
	fieldPos
	fieldSpeed
	fieldHeading
	fieldAlt
	fieldType
	fieldWind
	fieldWave
)

func (f pointField) isString() bool { return f == fieldID || f == fieldType }

func (f pointField) isNumber() bool {
	return f == fieldSpeed || f == fieldHeading || f == fieldAlt || f == fieldWind || f == fieldWave
}

// str returns a string field.
func (r *PointRow) str(f pointField) string {
	if f == fieldID {
		return r.Point.ID
	}
	return string(r.Point.Type)
}

// num returns a numeric field.
func (r *PointRow) num(f pointField) float64 {
	switch f {
	case fieldSpeed:
		return r.Point.SpeedKn
	case fieldHeading:
		return r.Point.Heading
	case fieldAlt:
		return r.Point.AltFt
	case fieldWind:
		return r.Wind
	default:
		return r.Wave
	}
}

// PointGraph is one critical point's graph as a PointRenderer renders it:
// every triple's N-Triples line (as rdf.Triple.AppendNT writes it) back to
// back in Lines, the Key of each distinct subject back to back in Keys, and
// one LineSpan per triple, in template, weather, link order. A caller reuses
// one PointGraph across points; Render overwrites it.
type PointGraph struct {
	Lines   []byte
	Keys    []byte
	Triples []LineSpan

	terms []byte     // every variable's N-Triples term, rendered once
	spans []termSpan // per variable: its term in terms, its key in Keys
}

// LineSpan locates one rendered triple: its line is Lines[Start:End] and its
// subject's Key is Keys[KeyStart:KeyEnd].
type LineSpan struct {
	Start, End, KeyStart, KeyEnd int
}

// termSpan is where one variable's term, and its key once the variable has
// been a subject, sit for the point being rendered; keyStart < 0 until then.
type termSpan struct {
	start, end, keyStart, keyEnd int
}

// PointRenderer renders critical-point graphs straight to N-Triples lines:
// it is the critical-point template, and the weather annotations, compiled
// over a PointRow. Constant terms are rendered once, at construction; per
// point each variable's term is appended once by a typed appender, and each
// line is its constants and its variables' terms copied in turn. A renderer
// is read-only once built, so goroutines may share one.
type PointRenderer struct {
	vars  []pointVar
	lines []lineProg
	// The first templateVars variables and templateLines lines are the
	// template's; the rest are the weather's.
	templateVars, templateLines int
}

// pointVar is one compiled binding: the term kind it makes and the row
// fields it reads.
type pointVar struct {
	kind   bindKind
	fields []pointField
	segs   []string // an IRI's literal segments around its fields
	suffix string   // what follows a literal's closing quote: its datatype
}

// lineProg is one compiled pattern: its subject variable and its line as
// constant text and variable references.
type lineProg struct {
	subj int
	ops  []lineOp
}

// lineOp is constant text (v < 0) or variable v's term.
type lineOp struct {
	v    int
	text string
}

// iriKeyPrefix is what rdf.IRI.Key puts before the IRI.
var iriKeyPrefix = rdf.IRI("").Key()

// NewPointRenderer compiles the critical-point template and the weather
// annotations, as templates.go declares them, into a renderer whose lines
// are exactly what CriticalPointGenerator's triples encode to.
func NewPointRenderer() *PointRenderer {
	r := &PointRenderer{}
	slots := map[string]int{}
	r.addVars(criticalPointBindings, slots)
	r.addLines(criticalPointTemplate, slots)
	r.templateVars, r.templateLines = len(r.vars), len(r.lines)
	r.addVars(pointWeatherBindings, slots)
	r.addLines(pointWeatherTemplate, slots)
	return r
}

// addVars compiles bindings into typed appenders. Only field bindings over
// PointRow fields of a matching type compile; anything else is a mistake in
// the declaration and panics.
func (r *PointRenderer) addVars(bindings []Binding, slots map[string]int) {
	for _, b := range bindings {
		if _, dup := slots[b.Var]; dup {
			panic("rdfgen: variable " + b.Var + " bound twice")
		}
		v := pointVar{kind: b.kind, segs: b.segs}
		for _, name := range b.fields {
			f, ok := pointFields[name]
			if !ok {
				panic("rdfgen: no PointRow field for record field " + name)
			}
			v.fields = append(v.fields, f)
		}
		var lit rdf.Literal
		typed := true
		switch v.kind {
		case bindStr:
			lit, typed = rdf.Str(""), v.fields[0].isString()
		case bindFloat:
			lit, typed = rdf.Float(0), v.fields[0].isNumber()
		case bindTime:
			lit, typed = rdf.Time(time.Time{}), v.fields[0] == fieldTime
		case bindWKT:
			lit, typed = rdf.WKT(""), v.fields[0] == fieldPos
		case bindIRI:
			for _, f := range v.fields {
				typed = typed && (f.isString() || f == fieldSeq)
			}
		default:
			panic("rdfgen: variable " + b.Var + " has no typed binding")
		}
		if !typed {
			panic("rdfgen: variable " + b.Var + " binds a field of the wrong type")
		}
		if v.kind != bindIRI {
			lit.Value = ""
			v.suffix = lit.String()[len(`""`):]
		}
		slots[b.Var] = len(r.vars)
		r.vars = append(r.vars, v)
	}
}

// addLines compiles patterns into lines. A rendered pattern's subject must
// be an IRI variable, whose Key the renderer derives from its term.
func (r *PointRenderer) addLines(tpl Template, slots map[string]int) {
	for _, tp := range tpl {
		subj, ok := slots[tp.S.v]
		if !ok || r.vars[subj].kind != bindIRI {
			panic("rdfgen: a rendered pattern's subject must be a bound IRI variable")
		}
		ln := lineProg{subj: subj}
		// Separated as rdf.Triple.AppendNT separates a triple's terms.
		ln.add(tp.S, slots)
		ln.text(" ")
		ln.add(tp.P, slots)
		ln.text(" ")
		ln.add(tp.O, slots)
		ln.text(" .")
		r.lines = append(r.lines, ln)
	}
}

func (ln *lineProg) add(ts TermSpec, slots map[string]int) {
	switch {
	case ts.konst != nil:
		ln.text(ts.konst.String())
	case ts.v != "":
		v, ok := slots[ts.v]
		if !ok {
			panic("rdfgen: variable " + ts.v + " is not bound")
		}
		ln.ops = append(ln.ops, lineOp{v: v})
	default:
		panic("rdfgen: a rendered pattern has an F slot")
	}
}

// text appends constant text, merged into a preceding constant.
func (ln *lineProg) text(s string) {
	if n := len(ln.ops); n > 0 && ln.ops[n-1].v < 0 {
		ln.ops[n-1].text += s
		return
	}
	ln.ops = append(ln.ops, lineOp{v: -1, text: s})
}

// Render renders row's graph into g: the template triples, the weather
// triples when row.Weather, then one triple per link, each link's line as
// linkdisc.Link.AppendNT writes it. Into a g whose buffers have grown to a
// point's size it does not allocate.
func (r *PointRenderer) Render(g *PointGraph, row *PointRow) {
	g.Lines, g.Keys, g.Triples, g.terms = g.Lines[:0], g.Keys[:0], g.Triples[:0], g.terms[:0]
	if cap(g.spans) < len(r.vars) {
		g.spans = make([]termSpan, len(r.vars))
	}
	spans := g.spans[:len(r.vars)]
	nVars, nLines := r.templateVars, r.templateLines
	if row.Weather {
		nVars, nLines = len(r.vars), len(r.lines)
	}
	for i := range r.vars[:nVars] {
		start := len(g.terms)
		g.terms = r.vars[i].appendTerm(g.terms, row)
		spans[i] = termSpan{start: start, end: len(g.terms), keyStart: -1}
	}
	for i := range r.lines[:nLines] {
		ln := &r.lines[i]
		subj := &spans[ln.subj]
		if subj.keyStart < 0 {
			// The subject is an IRI variable: its Key is the IRI without
			// the angle brackets its term wraps it in.
			subj.keyStart = len(g.Keys)
			g.Keys = append(g.Keys, iriKeyPrefix...)
			g.Keys = append(g.Keys, g.terms[subj.start+1:subj.end-1]...)
			subj.keyEnd = len(g.Keys)
		}
		start := len(g.Lines)
		for _, op := range ln.ops {
			if op.v < 0 {
				g.Lines = append(g.Lines, op.text...)
			} else {
				t := &spans[op.v]
				g.Lines = append(g.Lines, g.terms[t.start:t.end]...)
			}
		}
		g.Triples = append(g.Triples, LineSpan{Start: start, End: len(g.Lines), KeyStart: subj.keyStart, KeyEnd: subj.keyEnd})
	}
	var keyStart, keyEnd int
	for i := range row.Links {
		l := &row.Links[i]
		if i == 0 || l.Source != row.Links[i-1].Source {
			keyStart = len(g.Keys)
			g.Keys = l.AppendKey(g.Keys)
			keyEnd = len(g.Keys)
		}
		start := len(g.Lines)
		g.Lines = l.AppendNT(g.Lines)
		g.Triples = append(g.Triples, LineSpan{Start: start, End: len(g.Lines), KeyStart: keyStart, KeyEnd: keyEnd})
	}
}

// appendTerm appends the variable's N-Triples term for row. strconv and
// time.AppendFormat write printable ASCII with no '"' or '\\', which
// rdf.AppendQuoted copies as itself, so numbers, times and WKT are written
// between the quotes directly.
func (v *pointVar) appendTerm(dst []byte, row *PointRow) []byte {
	switch v.kind {
	case bindIRI:
		dst = append(dst, '<')
		dst = append(dst, v.segs[0]...)
		for i, f := range v.fields {
			if f == fieldSeq {
				dst = strconv.AppendInt(dst, int64(row.Seq), 10)
			} else {
				dst = append(dst, row.str(f)...)
			}
			dst = append(dst, v.segs[i+1]...)
		}
		return append(dst, '>')
	case bindStr:
		dst = rdf.AppendQuoted(dst, row.str(v.fields[0]))
	case bindFloat:
		dst = append(dst, '"')
		dst = strconv.AppendFloat(dst, row.num(v.fields[0]), 'g', -1, 64)
		dst = append(dst, '"')
	case bindTime:
		dst = append(dst, '"')
		dst = row.Point.Time.UTC().AppendFormat(dst, time.RFC3339)
		dst = append(dst, '"')
	case bindWKT:
		dst = append(dst, '"')
		dst = row.Point.Pos.AppendWKT(dst)
		dst = append(dst, '"')
	}
	return append(dst, v.suffix...)
}
