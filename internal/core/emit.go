package core

import (
	"context"
	"fmt"
	"strconv"
	"time"
	"unsafe"

	"datacron/internal/cer"
	"datacron/internal/linkdisc"
	"datacron/internal/msg"
	"datacron/internal/rdfgen"
	"datacron/internal/va"
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

// triplePublisher is the real-time layer's triple emit path: it places
// rendered graphs' N-Triples lines in an arena, stages their TopicTriples
// records, and sends everything staged in a single Broker.ProduceBatch. A
// publisher belongs to one goroutine — the run loop builds its own per run.
type triplePublisher struct {
	broker *msg.Broker
	arena  arena[byte]  // the encoded lines, owned by the broker once produced
	recs   []msg.Record // staged for the next send, reused across sends
	// The staged graphs' subject keys, back to back, and where record i's
	// key sits in them (stage appends to recs and keySpans together): send
	// turns them into one string.
	keys     []byte
	keySpans []keySpan
}

// keySpan places a staged record's key at keys[start:end].
type keySpan struct{ start, end int }

// stage appends a rendered graph's TopicTriples records to the stage, one
// per line stamped ts: the lines are copied into the arena in one piece, each
// record's value capped to its own line, and the keys to the stage's key
// buffer. It returns the graph's records, a window of the stage valid until
// the next stage or send, whose keys send fills in; a caller may produce
// their values to another topic as well, since the broker never writes a
// value it holds.
func (tp *triplePublisher) stage(g *rdfgen.PointGraph, ts time.Time) []msg.Record {
	lines := tp.arena.clone(g.Lines)
	base := len(tp.keys)
	//lint:ignore boundedchan emptied by every send: at most one poll batch's graphs
	tp.keys = append(tp.keys, g.Keys...)
	start := len(tp.recs)
	for _, t := range g.Triples {
		//lint:ignore boundedchan emptied by every send: at most one poll batch's graphs
		tp.keySpans = append(tp.keySpans, keySpan{start: base + t.KeyStart, end: base + t.KeyEnd})
		//lint:ignore boundedchan emptied by every send: at most one poll batch's graphs
		tp.recs = append(tp.recs, msg.Record{Value: lines[t.Start:t.End:t.End], Time: ts})
	}
	return tp.recs[start:]
}

// send produces the staged records to the triples topic in one broker batch
// and empties the stage. The staged graphs' keys become one string — the
// batch's one allocation for them — that every staged record's key is a
// slice of, so a run of one subject's records shares its key bytes.
func (tp *triplePublisher) send(ctx context.Context) error {
	if len(tp.keySpans) > 0 {
		keys := string(tp.keys)
		for i, k := range tp.keySpans {
			tp.recs[i].Key = keys[k.start:k.end]
		}
		tp.keys, tp.keySpans = tp.keys[:0], tp.keySpans[:0]
	}
	err := produceAll(ctx, tp.broker, TopicTriples, tp.recs)
	tp.recs = tp.recs[:0]
	return err
}

// batchEmit is the serial merge's output stage for one poll batch: it stages
// the batch's TopicTriples, TopicLinks and TopicEvents records, and
// flushBatch produces each topic once, in one Broker.ProduceBatch. Synopsis
// records are not staged: TopicSynopses is the emit the freshness SLO is
// written against, so each is still produced the moment its point is merged
// rather than charged half a batch's apply time.
type batchEmit struct {
	triples triplePublisher // its arena also holds the links' values
	links   []msg.Record
	events  []msg.Record
	notes   arena[byte] // the TopicEvents values
	// The Dashboard's event notes of the batch, back to back, and where
	// each ends: flushBatch adds them to dash from one string.
	dash     *va.Dashboard
	dashText []byte
	dashEnds []int
}

func newBatchEmit(b *msg.Broker, dash *va.Dashboard) *batchEmit {
	return &batchEmit{triples: triplePublisher{broker: b}, dash: dash}
}

// stageLink stages l's TopicLinks record: keyed by its source, stamped with
// its time, and valued with its triple's line.
func (e *batchEmit) stageLink(l linkdisc.Link, line []byte) {
	//lint:ignore boundedchan emptied by every flushBatch: at most one poll batch's links
	e.links = append(e.links, msg.Record{Key: l.Source, Value: line, Time: l.Time})
}

// stageEvent stages a TopicEvents record keyed id and stamped ts, its value a
// copy of note.
func (e *batchEmit) stageEvent(id string, note []byte, ts time.Time) {
	//lint:ignore boundedchan emptied by every flushBatch: at most one forecast per critical point of a poll batch
	e.events = append(e.events, msg.Record{Key: id, Value: e.notes.clone(note), Time: ts})
}

// stageNote stages a Dashboard event note, a copy of note.
func (e *batchEmit) stageNote(note []byte) {
	//lint:ignore boundedchan emptied by every flushBatch: at most two notes per critical point of a poll batch
	e.dashText = append(e.dashText, note...)
	//lint:ignore boundedchan emptied by every flushBatch: at most two notes per critical point of a poll batch
	e.dashEnds = append(e.dashEnds, len(e.dashText))
}

// flushBatch adds the staged notes to the Dashboard in staging order, then
// produces every staged record — the triples, then the links, then the
// events, one ProduceBatch per topic — and empties the stage. Within each
// topic the records keep their staging order, so every partition receives
// what one produce per record would have given it.
func (e *batchEmit) flushBatch(ctx context.Context) error {
	if len(e.dashEnds) > 0 {
		text, start := string(e.dashText), 0
		for _, end := range e.dashEnds {
			e.dash.AddEventNote(text[start:end])
			start = end
		}
		e.dashText, e.dashEnds = e.dashText[:0], e.dashEnds[:0]
	}
	err := e.triples.send(ctx)
	if err == nil {
		err = produceAll(ctx, e.triples.broker, TopicLinks, e.links)
	}
	if err == nil {
		err = produceAll(ctx, e.triples.broker, TopicEvents, e.events)
	}
	e.links, e.events = e.links[:0], e.events[:0]
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
