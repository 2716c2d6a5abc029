package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"datacron/internal/msg"
	"datacron/internal/rdf"
)

// tripleSlab is the size of the arena slabs TriplePublisher encodes into:
// a few dozen critical points' worth of N-Triples lines per allocation.
const tripleSlab = 32 << 10

// TriplePublisher is the real-time layer's triple emit path: it encodes
// triples as N-Triples lines into arena slabs and sends all the triples of
// one critical point to TopicTriples in a single Broker.ProduceBatch.
//
// The broker retains record values in its log, so a slab is filled once and
// never reused; each value is a slice of it with capped capacity, so nothing
// appended to one value can overwrite the next. A publisher belongs to one
// goroutine — the run loop builds its own per run.
type TriplePublisher struct {
	broker *msg.Broker
	slab   []byte       // current arena slab; the broker owns what is filled
	line   []byte       // one triple's encoding, before it is placed in a slab
	recs   []msg.Record // ProduceBatch scratch, reused across calls
}

// NewTriplePublisher returns a publisher producing to b's TopicTriples.
func NewTriplePublisher(b *msg.Broker) *TriplePublisher {
	return &TriplePublisher{broker: b}
}

// encode returns t's N-Triples line as an arena-backed value that is safe to
// hand to the broker. A line that does not fit the current slab's remainder
// starts a fresh slab; one larger than a whole slab gets its own allocation.
func (tp *TriplePublisher) encode(t rdf.Triple) []byte {
	tp.line = t.AppendNT(tp.line[:0])
	if len(tp.line) > cap(tp.slab)-len(tp.slab) {
		if len(tp.line) > tripleSlab {
			return slices.Clip(bytes.Clone(tp.line))
		}
		tp.slab = make([]byte, 0, tripleSlab)
	}
	start := len(tp.slab)
	tp.slab = tp.slab[:start+len(tp.line)]
	copy(tp.slab[start:], tp.line)
	return tp.slab[start:len(tp.slab):len(tp.slab)]
}

// Publish sends triples to the triples topic as N-Triples lines, in order,
// keyed by subject and stamped ts, in one broker batch.
func (tp *TriplePublisher) Publish(ctx context.Context, triples []rdf.Triple, ts time.Time) error {
	if cap(tp.recs) < len(triples) {
		tp.recs = make([]msg.Record, len(triples))
	}
	recs := tp.recs[:len(triples)]
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
