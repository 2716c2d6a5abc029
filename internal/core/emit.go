package core

import (
	"context"
	"fmt"
	"strconv"
	"time"
	"unsafe"

	"datacron/internal/cer"
	"datacron/internal/msg"
	"datacron/internal/rdfgen"
)

// arenaSlab is the size in bytes of the slabs an arena carves values from: a
// few dozen critical points' worth of records per allocation.
const arenaSlab = 32 << 10

// arena hands out values carved from fixed slabs: broker record values, and
// a shard worker's finished points. The broker retains record values in its
// log, and the merge reads finished points while the worker carves the next,
// so a slab is filled once and never reused; each value is a sub-slice with
// capped capacity, so nothing appended to one value can overwrite the next.
// An arena belongs to one goroutine, and every value it hands out is its
// taker's.
type arena[T any] struct {
	slab []T // current slab; what is filled belongs to the takers
}

// alloc returns an empty value with room for exactly n elements. A value that
// does not fit the current slab's remainder starts a fresh slab; one larger
// than a whole slab gets its own allocation.
func (a *arena[T]) alloc(n int) []T {
	if n > cap(a.slab)-len(a.slab) {
		var zero T
		size := arenaSlab / int(unsafe.Sizeof(zero))
		if n > size {
			return make([]T, 0, n)
		}
		a.slab = make([]T, 0, size)
	}
	start := len(a.slab)
	a.slab = a.slab[:start+n]
	return a.slab[start:start:len(a.slab)]
}

// clone returns a copy of b placed in the arena.
func (a *arena[T]) clone(b []T) []T { return append(a.alloc(len(b)), b...) }

// keySpan places a staged record's key at keys[start:end].
type keySpan struct{ start, end int }

// stageTriples appends a rendered graph's TopicTriples records to the
// merge's output, one per line stamped ts: the lines are copied into the
// arena in one piece, each record's value capped to its own line, and the
// keys to the merge's key buffer. It returns the graph's records, a window
// of the staged records valid until the next stageTriples or flushBatch,
// whose keys flushBatch fills in; a caller may produce their values to
// another topic as well, since the broker never writes a value it holds.
func (m *merge) stageTriples(g *rdfgen.PointGraph, ts time.Time) []msg.Record {
	lines := m.arena.clone(g.Lines)
	base := len(m.keys)
	//lint:ignore boundedchan emptied by every flushBatch: at most one poll batch's graphs
	m.keys = append(m.keys, g.Keys...)
	start := len(m.triples)
	for _, t := range g.Triples {
		//lint:ignore boundedchan emptied by every flushBatch: at most one poll batch's graphs
		m.keySpans = append(m.keySpans, keySpan{start: base + t.KeyStart, end: base + t.KeyEnd})
		//lint:ignore boundedchan emptied by every flushBatch: at most one poll batch's graphs
		m.triples = append(m.triples, msg.Record{Value: lines[t.Start:t.End:t.End], Time: ts})
	}
	return m.triples[start:]
}

// stageNote stages a Dashboard event note, a copy of note.
func (m *merge) stageNote(note []byte) {
	//lint:ignore boundedchan emptied by every flushBatch: at most two notes per critical point of a poll batch
	m.dashText = append(m.dashText, note...)
	//lint:ignore boundedchan emptied by every flushBatch: at most two notes per critical point of a poll batch
	m.dashEnds = append(m.dashEnds, len(m.dashText))
}

// flushBatch is the publish stage: it adds the staged notes to the
// Dashboard in staging order, then produces every staged record — the
// triples, then the links, then the events, one ProduceBatch per topic —
// and empties the stage. Within each topic the records keep their staging
// order, so every partition receives what one produce per record would have
// given it. The staged graphs' keys become one string — the batch's one
// allocation for them — that every triple record's key is a slice of, so a
// run of one subject's records shares its key bytes.
func (m *merge) flushBatch(ctx context.Context) error {
	if len(m.dashEnds) > 0 {
		text, start := string(m.dashText), 0
		for _, end := range m.dashEnds {
			m.p.Dashboard.AddEventNote(text[start:end])
			start = end
		}
		m.dashText, m.dashEnds = m.dashText[:0], m.dashEnds[:0]
	}
	if len(m.keySpans) > 0 {
		keys := string(m.keys)
		for i, k := range m.keySpans {
			m.triples[i].Key = keys[k.start:k.end]
		}
		m.keys, m.keySpans = m.keys[:0], m.keySpans[:0]
	}
	b := m.p.Broker
	err := produceAll(ctx, b, TopicTriples, m.triples)
	if err == nil {
		err = produceAll(ctx, b, TopicLinks, m.linkRecs)
	}
	if err == nil {
		err = produceAll(ctx, b, TopicEvents, m.events)
	}
	m.triples, m.linkRecs, m.events = m.triples[:0], m.linkRecs[:0], m.events[:0]
	return err
}

// produceAll produces recs to topic in one broker batch. Every record is
// part of the run's output, so one a drop policy on the topic refuses fails
// the run, as a refused per-record Produce would.
func produceAll(ctx context.Context, b *msg.Broker, topic string, recs []msg.Record) error {
	admitted, err := b.ProduceBatch(ctx, topic, recs)
	if err == nil && admitted < len(recs) {
		err = refusedErr(topic, len(recs)-admitted, len(recs))
	}
	return err
}

// refusedErr is produceAll's cold-path error, kept out of its body.
func refusedErr(topic string, refused, of int) error {
	return fmt.Errorf("core: %w: %d of %d records refused by %s", msg.ErrTopicFull, refused, of, topic)
}

// appendDetectionNote appends the Dashboard note for a pattern detected at
// a critical point of mover id at t: "<id>: pattern detected at <t in RFC
// 3339>".
func appendDetectionNote(dst []byte, id string, t time.Time) []byte {
	dst = append(dst, id...)
	dst = append(dst, ": pattern detected at "...)
	return t.AppendFormat(dst, time.RFC3339)
}

// appendForecastNote appends the note for a forecast at a critical point of
// mover id: "<id>: completion expected in <start>-<end> events (p=<prob to
// two decimals>)". It is both a Dashboard note and a TopicEvents value.
func appendForecastNote(dst []byte, id string, fc cer.Forecast) []byte {
	dst = append(dst, id...)
	dst = append(dst, ": completion expected in "...)
	dst = strconv.AppendInt(dst, int64(fc.Start), 10)
	dst = append(dst, '-')
	dst = strconv.AppendInt(dst, int64(fc.End), 10)
	dst = append(dst, " events (p="...)
	dst = strconv.AppendFloat(dst, fc.Prob, 'f', 2, 64)
	return append(dst, ')')
}
