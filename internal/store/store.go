package store

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"datacron/internal/geo"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
)

// Store is the spatio-temporal knowledge graph store: a dictionary plus a
// physical layout. Loading discovers spatio-temporal subjects (those with
// geosparql:asWKT point geometry and dtc:atTime stamps) and interns them
// with cell-embedding IDs; everything else gets plain IDs.
type Store struct {
	dict   *Dict
	layout Layout

	// Cached property IDs for the spatio-temporal access paths.
	idAsWKT  ID
	idAtTime ID
}

// New creates a store over the given cell configuration and layout.
func New(cfg STCellConfig, layout Layout) *Store {
	s := &Store{dict: NewDict(cfg), layout: layout}
	s.idAsWKT = s.dict.Encode(ontology.PropAsWKT)
	s.idAtTime = s.dict.Encode(ontology.PropAtTime)
	return s
}

// Dict exposes the dictionary (read-only use).
func (s *Store) Dict() *Dict { return s.dict }

// Layout exposes the physical layout (read-only use).
func (s *Store) Layout() Layout { return s.layout }

// Len returns the stored triple count.
func (s *Store) Len() int { return s.layout.Len() }

// Load ingests a batch of triples. It groups the batch by subject to decide
// which subjects are spatio-temporal entities, encodes accordingly, and
// stores every triple. Loading may be called repeatedly; a subject's
// encoding is fixed by the first batch that defines its position and time,
// so stream loaders should deliver a node's triples in one batch (the
// datAcron RDFizers do: each critical point is one record).
func (s *Store) Load(triples []rdf.Triple) {
	type stInfo struct {
		pos  geo.Point
		ts   time.Time
		hasP bool
		hasT bool
	}
	bySubj := make(map[string]*stInfo)
	for _, t := range triples {
		key := t.S.Key()
		info := bySubj[key]
		if info == nil {
			info = &stInfo{}
			bySubj[key] = info
		}
		switch t.P {
		case ontology.PropAsWKT:
			if lit, ok := t.O.(rdf.Literal); ok {
				if g, err := geo.ParseWKT(lit.Value); err == nil {
					if p, ok := g.(geo.Point); ok {
						info.pos = p
						info.hasP = true
					}
				}
			}
		case ontology.PropAtTime:
			if lit, ok := t.O.(rdf.Literal); ok {
				if ts, err := lit.AsTime(); err == nil {
					info.ts = ts
					info.hasT = true
				}
			}
		}
	}
	encodeSubject := func(term rdf.Term) ID {
		info := bySubj[term.Key()]
		if info != nil && info.hasP && info.hasT {
			return s.dict.EncodeSpatioTemporal(term, info.pos, info.ts)
		}
		return s.dict.Encode(term)
	}
	for _, t := range triples {
		s.layout.Add(EncodedTriple{
			S: encodeSubject(t.S),
			P: s.dict.Encode(t.P),
			O: s.dict.Encode(t.O),
		})
	}
}

// PO is one (predicate, object) pattern of a star query. A nil Obj means
// "any object" (the pattern only requires the predicate to be present).
type PO struct {
	Pred rdf.Term
	Obj  rdf.Term
}

// StarQuery is a subject-star basic graph pattern with an optional
// spatio-temporal constraint, the query shape of the paper's experiment.
type StarQuery struct {
	Patterns  []PO
	Rect      geo.Rect  // zero (empty) = no spatial constraint
	TimeStart time.Time // zero = no temporal constraint
	TimeEnd   time.Time
}

// HasSTConstraint reports whether the query carries both dimensions.
func (q StarQuery) HasSTConstraint() bool {
	return !q.Rect.IsEmpty() && !q.TimeStart.IsZero() && !q.TimeEnd.IsZero()
}

// Plan selects the execution strategy for the spatio-temporal constraint.
type Plan int

const (
	// PostFilter evaluates the RDF patterns first and applies the
	// spatio-temporal constraint by decoding each candidate's geometry and
	// timestamp — the behaviour of a generic distributed RDF engine.
	PostFilter Plan = iota
	// EncodedPruning prunes candidates by the spatio-temporal cell embedded
	// in their dictionary ID before any decoding; only candidates in
	// boundary cells need a precise check.
	EncodedPruning
)

func (p Plan) String() string {
	if p == EncodedPruning {
		return "encoded-pruning"
	}
	return "post-filter"
}

// QueryStats reports the work a query execution performed.
type QueryStats struct {
	Candidates    int // subjects after pattern joins (before ST filtering)
	CellRejected  int // candidates rejected by integer cell pruning
	CellAccepted  int // candidates accepted without precise checks
	PreciseChecks int // candidates that required decode + geometry test
	Results       int
}

// StarJoin executes the query under the given plan and returns the matching
// subjects (decoded), plus execution statistics.
func (s *Store) StarJoin(q StarQuery, plan Plan) ([]rdf.Term, QueryStats, error) {
	var stats QueryStats
	if len(q.Patterns) == 0 {
		return nil, stats, fmt.Errorf("store: star query needs at least one pattern")
	}

	// Resolve pattern terms; an unknown constant term means no results.
	type encPO struct {
		p, o ID
		any  bool
	}
	encs := make([]encPO, 0, len(q.Patterns))
	for _, po := range q.Patterns {
		p := s.dict.Lookup(po.Pred)
		if p == 0 {
			return nil, stats, nil
		}
		e := encPO{p: p, any: po.Obj == nil}
		if po.Obj != nil {
			e.o = s.dict.Lookup(po.Obj)
			if e.o == 0 {
				return nil, stats, nil
			}
		}
		encs = append(encs, e)
	}

	// Base candidates: the most selective constant-object pattern.
	base := -1
	var baseList []ID
	for i, e := range encs {
		if e.any {
			continue
		}
		l := s.layout.SubjectsPO(e.p, e.o)
		if base == -1 || len(l) < len(baseList) {
			base = i
			baseList = l
		}
	}
	if base == -1 {
		return nil, stats, fmt.Errorf("store: star query needs at least one constant-object pattern")
	}

	candidates := baseList

	// Encoded pruning happens before the remaining joins: integer filtering
	// is cheaper than any other operator.
	var matcher *CellMatcher
	if q.HasSTConstraint() && plan == EncodedPruning {
		matcher = s.dict.Matcher(q.Rect, q.TimeStart, q.TimeEnd)
		pruned := candidates[:0:0]
		for _, id := range candidates {
			if id.IsSpatioTemporal() {
				if hit, _ := matcher.Match(id.Cell()); !hit {
					stats.CellRejected++
					continue
				}
			}
			pruned = append(pruned, id)
		}
		candidates = pruned
	}

	// Join the remaining patterns.
	for i, e := range encs {
		if i == base {
			continue
		}
		if e.any {
			candidates = filterIDs(candidates, func(id ID) bool {
				return s.layout.HasSP(id, e.p)
			})
		} else {
			other := s.layout.SubjectsPO(e.p, e.o)
			candidates = intersectSorted(candidates, other)
		}
	}
	stats.Candidates = len(candidates)

	// Spatio-temporal filtering.
	if q.HasSTConstraint() {
		candidates = s.stFilter(candidates, q, plan, matcher, &stats)
	}
	stats.Results = len(candidates)

	out := make([]rdf.Term, 0, len(candidates))
	for _, id := range candidates {
		if t, ok := s.dict.Decode(id); ok {
			out = append(out, t)
		}
	}
	return out, stats, nil
}

// stFilter applies the spatio-temporal constraint over candidates in
// GOMAXPROCS parallel chunks.
func (s *Store) stFilter(candidates []ID, q StarQuery, plan Plan, matcher *CellMatcher, stats *QueryStats) []ID {
	type verdict struct {
		accepted                    []ID
		cellAccepted, preciseChecks int
	}
	chunks := chunkIDs(candidates, runtime.GOMAXPROCS(0))
	results := make([]verdict, len(chunks))
	var wg sync.WaitGroup
	for ci, chunk := range chunks {
		wg.Add(1)
		go func(ci int, chunk []ID) {
			defer wg.Done()
			var v verdict
			for _, id := range chunk {
				if plan == EncodedPruning && id.IsSpatioTemporal() {
					hit, full := matcher.Match(id.Cell())
					if !hit {
						continue // pruned (counted earlier for base, not here)
					}
					if full {
						v.cellAccepted++
						v.accepted = append(v.accepted, id)
						continue
					}
				}
				v.preciseChecks++
				if s.preciseSTCheck(id, q) {
					v.accepted = append(v.accepted, id)
				}
			}
			results[ci] = v
		}(ci, chunk)
	}
	wg.Wait()
	var out []ID
	for _, v := range results {
		out = append(out, v.accepted...)
		stats.CellAccepted += v.cellAccepted
		stats.PreciseChecks += v.preciseChecks
	}
	sortIDs(out)
	return out
}

// preciseSTCheck decodes the subject's geometry and timestamp triples and
// tests them against the query volume — the expensive path the encoding
// exists to avoid.
func (s *Store) preciseSTCheck(id ID, q StarQuery) bool {
	okSpace := false
	for _, oid := range s.layout.ObjectsSP(id, s.idAsWKT) {
		t, ok := s.dict.Decode(oid)
		if !ok {
			continue
		}
		lit, ok := t.(rdf.Literal)
		if !ok {
			continue
		}
		g, err := geo.ParseWKT(lit.Value)
		if err != nil {
			continue
		}
		if p, ok := g.(geo.Point); ok && q.Rect.Contains(p) {
			okSpace = true
			break
		}
	}
	if !okSpace {
		return false
	}
	for _, oid := range s.layout.ObjectsSP(id, s.idAtTime) {
		t, ok := s.dict.Decode(oid)
		if !ok {
			continue
		}
		lit, ok := t.(rdf.Literal)
		if !ok {
			continue
		}
		ts, err := lit.AsTime()
		if err != nil {
			continue
		}
		if !ts.Before(q.TimeStart) && ts.Before(q.TimeEnd) {
			return true
		}
	}
	return false
}

// intersectSorted merges two ascending ID lists.
func intersectSorted(a, b []ID) []ID {
	var out []ID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func filterIDs(ids []ID, keep func(ID) bool) []ID {
	out := ids[:0:0]
	for _, id := range ids {
		if keep(id) {
			out = append(out, id)
		}
	}
	return out
}

// chunkIDs splits ids into at most n contiguous chunks.
func chunkIDs(ids []ID, n int) [][]ID {
	if len(ids) == 0 {
		return nil
	}
	if n > len(ids) {
		n = len(ids)
	}
	size := (len(ids) + n - 1) / n
	var out [][]ID
	for i := 0; i < len(ids); i += size {
		end := i + size
		if end > len(ids) {
			end = len(ids)
		}
		out = append(out, ids[i:end])
	}
	return out
}
