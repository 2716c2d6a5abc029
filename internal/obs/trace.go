package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records lightweight spans: named, timed stages of the pipeline
// (poll, process, checkpoint, ...). Each completed span is kept in a
// bounded ring of recent spans for dumps (the admin server's /traces
// endpoint, -trace-jsonl); spans feed no metric. Spans carry a tracer-unique
// ID so log lines tagged with it correlate with the dumped records, and an
// optional parent-span ID plus key/value attrs so a sampled record yields a
// span *tree* (ingest→submit→decode→synopses→flp→cer→emit) instead of
// disjoint timings. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	clock Clock
	seq   atomic.Int64
	mu    sync.Mutex
	ring  []SpanRecord
	next  int
	full  bool
}

// Attr is one key/value annotation on a span (mover ID, partition, shard).
type Attr struct {
	Key   string
	Value string
}

// SpanRecord is one completed span. Parent is 0 for root spans, otherwise
// the ID of the enclosing span (which completed — and entered the ring —
// after its children, since End propagates leaf-to-root).
type SpanRecord struct {
	ID       int64
	Parent   int64
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// NewTracer returns a tracer timing spans on clock and retaining the last
// ringSize completed spans (minimum 16).
func NewTracer(clock Clock, ringSize int) *Tracer {
	if ringSize < 16 {
		ringSize = 16
	}
	return &Tracer{clock: clock, ring: make([]SpanRecord, ringSize)}
}

// Span is an in-flight stage timing; call End exactly once. The zero Span
// (from a nil Tracer, or any Child of the zero Span) ends as a no-op, so
// instrumented code paths can thread spans unconditionally and pay only a
// nil check for unsampled records.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  []Attr
}

// Start opens a root span. Time comes from the tracer's Clock.
func (t *Tracer) Start(name string) Span {
	return t.StartSpan(name)
}

// StartSpan opens a root span annotated with attrs.
func (t *Tracer) StartSpan(name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, id: t.seq.Add(1), name: name, start: t.clock.Now(), attrs: attrs}
}

// Child opens a sub-span parented to s, starting now. On the zero Span it
// returns another zero Span, so whole call trees no-op when the root was
// not sampled.
func (s Span) Child(name string, attrs ...Attr) Span {
	if s.t == nil {
		return Span{}
	}
	return Span{t: s.t, id: s.t.seq.Add(1), parent: s.id, name: name, start: s.t.clock.Now(), attrs: attrs}
}

// ChildAt opens a sub-span parented to s with an explicit start instant —
// used for dwell spans that began before the code observed them, e.g. the
// broker residency of a record measured from its event time.
func (s Span) ChildAt(name string, at time.Time, attrs ...Attr) Span {
	if s.t == nil {
		return Span{}
	}
	return Span{t: s.t, id: s.t.seq.Add(1), parent: s.id, name: name, start: at, attrs: attrs}
}

// ID returns the span's tracer-unique identifier (0 for the no-op span).
// Log lines that carry it under the "span" attr correlate with the
// tracer's Recent dump.
func (s Span) ID() int64 { return s.id }

// End closes the span, recording its duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := s.t.clock.Now().Sub(s.start)
	s.t.mu.Lock()
	s.t.ring[s.t.next] = SpanRecord{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, Duration: d, Attrs: s.attrs}
	s.t.next = (s.t.next + 1) % len(s.t.ring)
	if s.t.next == 0 {
		s.t.full = true
	}
	s.t.mu.Unlock()
}

// Recent returns the retained spans in completion order, oldest first.
// This ordering is a contract: once the ring has wrapped, the slice still
// begins with the oldest surviving span and ends with the most recently
// completed one — consumers (the /traces endpoint, the JSONL export) rely
// on it to reconstruct trees, since a parent always completes after its
// children and therefore appears later in the slice.
func (t *Tracer) Recent() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}
