// Package msg implements the in-process message broker that substitutes for
// Apache Kafka in the datAcron architecture: named topics split into
// partitions, each an append-only offset-addressed log, with producers that
// partition by key hash and consumer groups with committed offsets. A
// group's one open consumer reads every partition of its topic.
//
// The broker provides the same contract the pipeline relies on from Kafka:
// records within a partition are totally ordered and replayable from any
// offset, records with equal keys land in the same partition, and multiple
// consumer groups read the same topic independently.
package msg

import "time"

// Record is a single message in a partition log.
type Record struct {
	Topic     string
	Partition int
	Offset    int64
	Key       string
	Value     []byte
	Time      time.Time
}

// HashKey maps a key to a partition index in [0, n) by FNV-1a hash. It is
// exported because it defines the project's one keyed-routing discipline:
// the broker partitions producers with it, and the shard execution plane
// (internal/shard) routes records to workers through it, so a record's
// broker partition and its processing shard are derived from the same hash
// of the same key. The hash runs over the string's bytes in place: no
// hash.Hash32, no []byte copy.
func HashKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}
