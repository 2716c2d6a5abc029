package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"datacron/internal/cer"
	"datacron/internal/msg"
	"datacron/internal/rdf"
	"datacron/internal/rdfgen"
)

// arenaSlab is the size of the slabs an arena carves values from: a few
// dozen critical points' worth of records per allocation.
const arenaSlab = 32 << 10

// arena hands out broker record values carved from fixed slabs. The broker
// retains record values in its log, so a slab is filled once and never
// reused; each value is a sub-slice with capped capacity, so nothing
// appended to one value can overwrite the next. An arena belongs to one
// goroutine, and the broker owns every value it hands out.
type arena struct {
	slab []byte // current slab; the broker owns what is filled
}

// alloc returns an empty value with room for exactly n bytes. A value that
// does not fit the current slab's remainder starts a fresh slab; one larger
// than a whole slab gets its own allocation.
func (a *arena) alloc(n int) []byte {
	if n > cap(a.slab)-len(a.slab) {
		if n > arenaSlab {
			return make([]byte, 0, n)
		}
		a.slab = make([]byte, 0, arenaSlab)
	}
	start := len(a.slab)
	a.slab = a.slab[:start+n]
	return a.slab[start:start:len(a.slab)]
}

// clone returns a copy of b placed in the arena.
func (a *arena) clone(b []byte) []byte { return append(a.alloc(len(b)), b...) }

// TriplePublisher is the real-time layer's triple emit path: it places
// N-Triples lines in an arena and sends all the triples of one critical
// point to TopicTriples in a single Broker.ProduceBatch. A publisher belongs
// to one goroutine — the run loop builds its own per run.
type TriplePublisher struct {
	broker *msg.Broker
	arena  arena        // the encoded lines, owned by the broker once produced
	line   []byte       // one triple's encoding, before it is placed in the arena
	recs   []msg.Record // ProduceBatch scratch, reused across calls
}

// NewTriplePublisher returns a publisher producing to b's TopicTriples.
func NewTriplePublisher(b *msg.Broker) *TriplePublisher {
	return &TriplePublisher{broker: b}
}

// encode returns t's N-Triples line as an arena-backed value that is safe to
// hand to the broker.
func (tp *TriplePublisher) encode(t rdf.Triple) []byte {
	tp.line = t.AppendNT(tp.line[:0])
	return tp.arena.clone(tp.line)
}

// batch returns the ProduceBatch scratch sized for n records.
func (tp *TriplePublisher) batch(n int) []msg.Record {
	if cap(tp.recs) < n {
		tp.recs = make([]msg.Record, n)
	}
	return tp.recs[:n]
}

// Publish sends triples to the triples topic as N-Triples lines, in order,
// keyed by subject and stamped ts, in one broker batch.
func (tp *TriplePublisher) Publish(ctx context.Context, triples []rdf.Triple, ts time.Time) error {
	recs := tp.batch(len(triples))
	// Consecutive triples mostly share a subject (a template lists a node's
	// properties together), so the key is built once per run of equal ones.
	var subject rdf.Term
	var key string
	for i, t := range triples {
		if t.S != subject {
			subject, key = t.S, t.S.Key()
		}
		recs[i] = msg.Record{Key: key, Value: tp.encode(t), Time: ts}
	}
	return tp.send(ctx, recs)
}

// stage turns a rendered graph into its TopicTriples batch, one record per
// line stamped ts: the lines are copied into the arena in one piece, each
// record's value capped to its own line, and the keys become one string —
// the point's one allocation — that every record's key is a slice of. The
// records are the publisher's scratch, valid until the next stage or
// Publish; a caller may produce their values to another topic as well, since
// the broker never writes a value it holds.
func (tp *TriplePublisher) stage(g *rdfgen.PointGraph, ts time.Time) []msg.Record {
	lines := tp.arena.clone(g.Lines)
	keys := string(g.Keys)
	recs := tp.batch(len(g.Triples))
	for i, t := range g.Triples {
		recs[i] = msg.Record{Key: keys[t.KeyStart:t.KeyEnd], Value: lines[t.Start:t.End:t.End], Time: ts}
	}
	return recs
}

// send produces recs to the triples topic in one broker batch.
func (tp *TriplePublisher) send(ctx context.Context, recs []msg.Record) error {
	admitted, err := tp.broker.ProduceBatch(ctx, TopicTriples, recs)
	if err == nil && admitted < len(recs) {
		err = triplesRefusedErr(len(recs)-admitted, len(recs))
	}
	return err
}

// triplesRefusedErr reports triples a drop policy on the triples topic
// refused: losing part of a critical point's graph fails the run, as a
// refused per-record Produce would.
func triplesRefusedErr(refused, of int) error {
	return fmt.Errorf("core: %w: %d of %d triples refused by %s", msg.ErrTopicFull, refused, of, TopicTriples)
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
