package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteNTriples serialises triples in N-Triples format, one per line.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, t := range triples {
		line = append(t.AppendNT(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNTriples parses an N-Triples document. Blank lines and #-comments are
// skipped. Errors carry the line number.
func ReadNTriples(r io.Reader) ([]Triple, error) {
	var out []Triple
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		t, err := ParseNTriple(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseNTriple parses one N-Triples line — what Triple.AppendNT writes, with
// or without surrounding whitespace. It copies line once; the parsed terms
// do not alias it.
func ParseNTriple(line []byte) (Triple, error) {
	s, rest, err := parseNTTerm(string(line))
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	p, rest, err := parseNTTerm(rest)
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	o, rest, err := parseNTTerm(rest)
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return Triple{}, fmt.Errorf("expected terminating '.', got %q", rest)
	}
	if _, ok := p.(IRI); !ok {
		return Triple{}, fmt.Errorf("predicate must be an IRI")
	}
	switch s.(type) {
	case IRI, BNode:
	default:
		return Triple{}, fmt.Errorf("subject must be an IRI or blank node")
	}
	return Triple{S: s, P: p, O: o}, nil
}

// parseNTTerm reads one term from the front of s and returns the remainder.
func parseNTTerm(s string) (Term, string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, "", fmt.Errorf("unexpected end of line")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return nil, "", fmt.Errorf("unterminated IRI")
		}
		return IRI(s[1:end]), s[end+1:], nil
	case '_':
		if !strings.HasPrefix(s, "_:") {
			return nil, "", fmt.Errorf("malformed blank node")
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		return BNode(s[2:end]), s[end:], nil
	case '"':
		// Find the closing quote honouring escapes.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, "", fmt.Errorf("unterminated literal")
		}
		val, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, "", fmt.Errorf("bad literal escape: %w", err)
		}
		rest := s[end+1:]
		lit := Literal{Value: val}
		if strings.HasPrefix(rest, "^^<") {
			dtEnd := strings.IndexByte(rest, '>')
			if dtEnd < 0 {
				return nil, "", fmt.Errorf("unterminated datatype IRI")
			}
			lit.Datatype = IRI(rest[3:dtEnd])
			rest = rest[dtEnd+1:]
		}
		return lit, rest, nil
	default:
		return nil, "", fmt.Errorf("unexpected term start %q", s[0])
	}
}
