package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"datacron/internal/core"
	"datacron/internal/msg"
)

// outputTopics are the topics the real-time layer publishes to.
var outputTopics = []string{core.TopicSynopses, core.TopicTriples, core.TopicLinks, core.TopicEvents}

// digests holds, per output topic, the SHA-256 over (key, value, time) of
// every record, partitions in index order and records in offset order, plus
// the record count. Two runs published the same output exactly when their
// digests are equal.
type digests struct {
	Sum   map[string]string `json:"sha256"`
	Count map[string]int64  `json:"records"`
}

func digestOutputs(b *msg.Broker) (digests, error) {
	d := digests{Sum: map[string]string{}, Count: map[string]int64{}}
	ctx := context.Background()
	var num [8]byte
	for _, topic := range outputTopics {
		parts, err := b.Partitions(topic)
		if err != nil {
			return d, err
		}
		h := sha256.New()
		for p := 0; p < parts; p++ {
			end, err := b.EndOffset(topic, p)
			if err != nil {
				return d, err
			}
			if end == 0 {
				continue
			}
			recs, err := b.Fetch(ctx, topic, p, 0, int(end))
			if err != nil {
				return d, err
			}
			if int64(len(recs)) != end {
				return d, fmt.Errorf("digest %s/%d: fetched %d of %d records", topic, p, len(recs), end)
			}
			for i := range recs {
				binary.LittleEndian.PutUint64(num[:], uint64(len(recs[i].Key)))
				h.Write(num[:])
				h.Write([]byte(recs[i].Key))
				binary.LittleEndian.PutUint64(num[:], uint64(len(recs[i].Value)))
				h.Write(num[:])
				h.Write(recs[i].Value)
				binary.LittleEndian.PutUint64(num[:], uint64(recs[i].Time.UnixNano()))
				h.Write(num[:])
			}
			d.Count[topic] += end
		}
		d.Sum[topic] = hex.EncodeToString(h.Sum(nil))
	}
	return d, nil
}

// equal reports whether every topic matches.
func (d digests) equal(o digests) bool {
	for _, t := range outputTopics {
		if d.Sum[t] != o.Sum[t] || d.Count[t] != o.Count[t] {
			return false
		}
	}
	return true
}

// sameLive compares a live run with a closed-loop run. Live, the poll order
// across raw partitions depends on arrival, so only the synopses topic —
// keyed by mover, hence per-partition ordered like the raw topic — is
// byte-comparable. Triples and links must agree in record count; events are
// not compared, because the one global CER forecaster consumes the movers'
// critical points interleaved in poll order.
func (d digests) sameLive(ref digests) bool {
	if d.Sum[core.TopicSynopses] != ref.Sum[core.TopicSynopses] {
		return false
	}
	for _, t := range []string{core.TopicSynopses, core.TopicTriples, core.TopicLinks} {
		if d.Count[t] != ref.Count[t] {
			return false
		}
	}
	return true
}
