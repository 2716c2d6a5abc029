// Package rdf implements the RDF data model used by the datAcron data
// manager: IRIs, literals and blank nodes, triples, an indexed in-memory
// graph with pattern matching, and N-Triples serialisation — the common
// representation every data source is lifted into (Section 4.2.3).
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Term is an RDF term: IRI, Literal or BNode.
type Term interface {
	// String renders the term in N-Triples syntax.
	String() string
	// Key returns a canonical map key (equal terms have equal keys).
	Key() string
	isTerm()
}

// IRI is an absolute IRI reference.
type IRI string

func (i IRI) isTerm()        {}
func (i IRI) Key() string    { return "I" + string(i) }
func (i IRI) String() string { return termString(i) }

// Common XSD datatype IRIs.
const (
	XSDString   IRI = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  IRI = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble   IRI = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  IRI = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime IRI = "http://www.w3.org/2001/XMLSchema#dateTime"
	WKTLiteral  IRI = "http://www.opengis.net/ont/geosparql#wktLiteral"
)

// RDFType is the rdf:type predicate.
const RDFType IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Literal is an RDF literal with an optional datatype.
type Literal struct {
	Value    string
	Datatype IRI // empty means xsd:string
}

func (l Literal) isTerm() {}

func (l Literal) Key() string { return "L" + string(l.Datatype) + "\x00" + l.Value }

func (l Literal) String() string { return termString(l) }

// BNode is a blank node with a local label.
type BNode string

func (b BNode) isTerm()        {}
func (b BNode) Key() string    { return "B" + string(b) }
func (b BNode) String() string { return termString(b) }

// Convenience literal constructors.

// Str returns a plain string literal.
func Str(v string) Literal { return Literal{Value: v} }

// Int returns an xsd:integer literal.
func Int(v int64) Literal {
	return Literal{Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// Float returns an xsd:double literal.
func Float(v float64) Literal {
	return Literal{Value: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDDouble}
}

// Bool returns an xsd:boolean literal.
func Bool(v bool) Literal {
	return Literal{Value: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// Time returns an xsd:dateTime literal in RFC3339.
func Time(t time.Time) Literal {
	return Literal{Value: t.UTC().Format(time.RFC3339), Datatype: XSDDateTime}
}

// WKT returns a geosparql wktLiteral.
func WKT(wkt string) Literal { return Literal{Value: wkt, Datatype: WKTLiteral} }

// AsFloat parses a numeric literal value.
func (l Literal) AsFloat() (float64, error) {
	return strconv.ParseFloat(l.Value, 64)
}

// AsTime parses an xsd:dateTime literal value.
func (l Literal) AsTime() (time.Time, error) {
	return time.Parse(time.RFC3339, l.Value)
}

// Triple is an RDF statement.
type Triple struct {
	S Term // IRI or BNode
	P Term // IRI
	O Term
}

// AppendNT appends the triple's N-Triples line, without the newline, to dst
// and returns the extended buffer. It is the repository's only N-Triples
// encoder: String, the terms' String methods and WriteNTriples all render
// through it, so what the real-time layer publishes and what an archive
// holds cannot drift apart. With spare capacity in dst it does not allocate.
func (t Triple) AppendNT(dst []byte) []byte {
	dst = appendTerm(dst, t.S)
	dst = append(dst, ' ')
	dst = appendTerm(dst, t.P)
	dst = append(dst, ' ')
	dst = appendTerm(dst, t.O)
	return append(dst, " ."...)
}

// appendTerm appends one term in N-Triples syntax. Literals are escaped with
// strconv.AppendQuote, which is what ParseNTriple unquotes.
func appendTerm(dst []byte, t Term) []byte {
	switch v := t.(type) {
	case IRI:
		dst = append(dst, '<')
		dst = append(dst, v...)
		return append(dst, '>')
	case Literal:
		dst = AppendQuoted(dst, v.Value)
		if v.Datatype != "" && v.Datatype != XSDString {
			dst = append(dst, "^^<"...)
			dst = append(dst, v.Datatype...)
			dst = append(dst, '>')
		}
		return dst
	case BNode:
		dst = append(dst, "_:"...)
		return append(dst, v...)
	default:
		// A nil term, as in the zero Triple: rendered the way fmt's %s
		// renders a nil interface, so String never panics.
		return append(dst, "%!s(<nil>)"...)
	}
}

// AppendQuoted appends s quoted as a literal's lexical form, exactly as
// AppendNT writes it, which is what strconv.AppendQuote writes. A literal of
// printable ASCII with no '"' or '\\' — every number, time and WKT the
// pipeline writes — quotes as itself, so it is copied between two quote
// bytes without AppendQuote's per-rune decoding.
func AppendQuoted(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ntStackBuf sizes the on-stack buffer String renders into; a longer line
// spills to the heap through append.
const ntStackBuf = 256

func termString(t Term) string {
	var buf [ntStackBuf]byte
	return string(appendTerm(buf[:0], t))
}

func (t Triple) String() string {
	var buf [ntStackBuf]byte
	return string(t.AppendNT(buf[:0]))
}

// Key returns a canonical identity for set semantics.
func (t Triple) Key() string {
	return t.S.Key() + "\x01" + t.P.Key() + "\x01" + t.O.Key()
}

// Namespace eases IRI minting: ns.IRI("name") = <prefix+name>.
type Namespace string

// IRI mints an IRI inside the namespace.
func (n Namespace) IRI(local string) IRI { return IRI(string(n) + local) }

// Well-known namespaces used across the pipeline.
var (
	NSDatAcron Namespace = "http://www.datacron-project.eu/datAcron#"
	NSDUL      Namespace = "http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#"
	NSGeo      Namespace = "http://www.opengis.net/ont/geosparql#"
	NSSSN      Namespace = "http://www.w3.org/ns/ssn/"
)

// ExpandPrefixed resolves a compact "prefix:local" name against the built-in
// prefixes (dtc, dul, geosparql, ssn, rdf, xsd). Unknown prefixes error.
func ExpandPrefixed(s string) (IRI, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is not a prefixed name", s)
	}
	prefix, local := s[:i], s[i+1:]
	switch prefix {
	case "dtc":
		return NSDatAcron.IRI(local), nil
	case "dul":
		return NSDUL.IRI(local), nil
	case "geosparql", "geo":
		return NSGeo.IRI(local), nil
	case "ssn":
		return NSSSN.IRI(local), nil
	case "rdf":
		return IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#" + local), nil
	case "xsd":
		return IRI("http://www.w3.org/2001/XMLSchema#" + local), nil
	default:
		return "", fmt.Errorf("rdf: unknown prefix %q", prefix)
	}
}
