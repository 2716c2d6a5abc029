package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// legacyTerm and legacyLine are the fmt/strconv.Quote rendering AppendNT
// replaced, kept here as the reference the encoder must match byte for byte:
// every digest in the benchmark and every archive written before depends on it.
func legacyTerm(t Term) string {
	switch v := t.(type) {
	case IRI:
		return "<" + string(v) + ">"
	case Literal:
		s := strconv.Quote(v.Value)
		if v.Datatype != "" && v.Datatype != XSDString {
			return s + "^^<" + string(v.Datatype) + ">"
		}
		return s
	case BNode:
		return "_:" + string(v)
	}
	return fmt.Sprintf("%s", t)
}

func legacyLine(t Triple) string {
	return fmt.Sprintf("%s %s %s .", legacyTerm(t.S), legacyTerm(t.P), legacyTerm(t.O))
}

func TestAppendNTMatchesLegacyRendering(t *testing.T) {
	s, p := IRI("http://x/s"), IRI("http://x/p")
	objects := map[string]Term{
		"iri":             IRI("http://x/o#frag?q=1"),
		"empty iri":       IRI(""),
		"blank node":      BNode("b1"),
		"plain":           Str("hello"),
		"empty":           Str(""),
		"quotes":          Str(`say "hi"`),
		"backslashes":     Str(`C:\dir\file`),
		"newline and tab": Str("line1\nline2\tend\r"),
		"control chars":   Str("\x00\x01\x07\x1b\x7f"),
		"non-ascii":       Str("Πειραιάς — 港 ✈"),
		"invalid utf-8":   Str("bad\xff\xfebytes"),
		"explicit string": Literal{Value: "typed", Datatype: XSDString},
		"integer":         Int(-42),
		"double":          Float(2.5e-7),
		"boolean":         Bool(true),
		"wkt":             WKT("POLYGON ((0 0, 1 0, 1 1, 0 0))"),
		"custom datatype": Literal{Value: `a"b`, Datatype: "http://x/dt"},
		"nil":             nil,
	}
	for name, o := range objects {
		for _, tr := range []Triple{{S: s, P: p, O: o}, {S: BNode("n"), P: p, O: o}} {
			want := legacyLine(tr)
			if got := string(tr.AppendNT(nil)); got != want {
				t.Errorf("%s: AppendNT = %s, want %s", name, got, want)
			}
			if got := tr.String(); got != want {
				t.Errorf("%s: String = %s, want %s", name, got, want)
			}
			if o != nil {
				if got, want := o.String(), legacyTerm(o); got != want {
					t.Errorf("%s: term String = %s, want %s", name, got, want)
				}
			}
		}
	}
	// AppendNT appends: what dst already holds is kept.
	tr := Triple{S: s, P: p, O: Str("x")}
	if got := string(tr.AppendNT([]byte("prefix "))); got != "prefix "+legacyLine(tr) {
		t.Errorf("AppendNT onto a prefix = %s", got)
	}
	// A line longer than String's stack buffer spills correctly.
	long := Triple{S: s, P: p, O: WKT(strings.Repeat("0 1, ", 200))}
	if got := long.String(); got != legacyLine(long) {
		t.Errorf("long line differs from legacy rendering")
	}
}

func TestAppendNTDoesNotAllocate(t *testing.T) {
	tr := Triple{S: IRI("http://x/s"), P: IRI("http://x/p"), O: WKT("POINT (23.5 \"37.9\")\n")}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = tr.AppendNT(buf[:0]) }); n != 0 {
		t.Errorf("AppendNT into spare capacity made %v allocations, want 0", n)
	}
}

// FuzzTripleAppend: whatever AppendNT writes, ParseNTriple reads back as the
// same triple. Terms the line syntax cannot carry (an IRI holding '>', a
// blank-node label holding a space or tab) are outside the property. Every
// input string is also checked against the literal quoting oracle: the
// printable-ASCII fast path writes what strconv.AppendQuote writes.
func FuzzTripleAppend(f *testing.F) {
	f.Add("http://x/s", false, "http://x/p", uint8(0), "http://x/o", "")
	f.Add("n1", true, "http://x/p", uint8(1), "say \"hi\"\n\\", "")
	f.Add("http://x/s", false, "http://x/p", uint8(1), "2.5", string(XSDDouble))
	f.Add("http://x/s", false, "http://x/p", uint8(1), "bad\xffutf8\x00", string(WKTLiteral))
	f.Add("", true, "", uint8(2), "b2", "")
	f.Add("http://x/s", false, "http://x/p", uint8(1), "POINT (23.5 37.9) ~\x7f", "")
	f.Fuzz(func(t *testing.T, subj string, subjBlank bool, pred string, kind uint8, obj, datatype string) {
		for _, s := range []string{subj, pred, obj, datatype} {
			if got, want := AppendQuoted([]byte("x"), s), strconv.AppendQuote([]byte("x"), s); string(got) != string(want) {
				t.Fatalf("AppendQuoted(%q) = %s, strconv.AppendQuote writes %s", s, got, want)
			}
		}
		okIRI := func(s string) bool { return !strings.Contains(s, ">") }
		okBNode := func(s string) bool { return !strings.ContainsAny(s, " \t") }
		var tr Triple
		switch {
		case subjBlank && okBNode(subj):
			tr.S = BNode(subj)
		case !subjBlank && okIRI(subj):
			tr.S = IRI(subj)
		default:
			t.Skip()
		}
		if !okIRI(pred) {
			t.Skip()
		}
		tr.P = IRI(pred)
		switch kind % 3 {
		case 0:
			if !okIRI(obj) {
				t.Skip()
			}
			tr.O = IRI(obj)
		case 1:
			if !okIRI(datatype) {
				t.Skip()
			}
			tr.O = Literal{Value: obj, Datatype: IRI(datatype)}
		default:
			if !okBNode(obj) {
				t.Skip()
			}
			tr.O = BNode(obj)
		}
		line := tr.AppendNT(nil)
		got, err := ParseNTriple(line)
		if err != nil {
			t.Fatalf("ParseNTriple(%q): %v", line, err)
		}
		// xsd:string is the implied datatype: written bare, read back empty.
		if l, ok := tr.O.(Literal); ok && l.Datatype == XSDString {
			l.Datatype = ""
			tr.O = l
		}
		if got != tr {
			t.Fatalf("round trip of %q: got %#v, want %#v", line, got, tr)
		}
		if again := got.AppendNT(nil); string(again) != string(line) {
			t.Fatalf("re-encoding differs: %q vs %q", again, line)
		}
	})
}
