package msg

import (
	"errors"
	"fmt"
)

// ErrTopicFull is returned by Produce when a partition's uncommitted backlog
// is at capacity and the topic's overload policy rejects the incoming record
// (DropNewest). Callers distinguish it from hard failures with errors.Is and
// may treat it as a shed rather than an error.
var ErrTopicFull = errors.New("msg: topic partition full")

// OverloadPolicy selects what Produce does when a partition's uncommitted
// backlog — records produced but not yet committed by every consumer group —
// has reached the topic's configured capacity.
type OverloadPolicy int

const (
	// Block makes Produce wait, honouring the caller's context, until the
	// consumer commits enough records that the backlog drops below capacity.
	// This is classic backpressure: a slow consumer slows the producer down
	// instead of growing the queue.
	Block OverloadPolicy = iota
	// DropNewest rejects the incoming record with ErrTopicFull and leaves
	// the log untouched. The producer decides what to do with the loss.
	DropNewest
	// DropOldestUncommitted sheds the oldest record no consumer group has
	// committed yet to make room for the incoming one. It never drops at or
	// below the committed offset (nor below a pinned replay floor), so the
	// records a checkpoint replay re-reads are exactly the records the
	// original run saw — replay stays byte-identical.
	DropOldestUncommitted
)

// String returns the flag-friendly spelling parsed by ParseOverloadPolicy.
func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	case DropOldestUncommitted:
		return "drop-oldest"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseOverloadPolicy parses the spelling String produces.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-newest":
		return DropNewest, nil
	case "drop-oldest":
		return DropOldestUncommitted, nil
	default:
		return 0, fmt.Errorf("msg: unknown overload policy %q (want block, drop-newest or drop-oldest)", s)
	}
}

// TopicLimit bounds a topic's per-partition uncommitted backlog. The zero
// value (Capacity 0) leaves the topic unbounded, the seed behaviour.
type TopicLimit struct {
	// Capacity is the maximum number of retained-but-uncommitted records per
	// partition before the Policy engages. 0 disables the limit.
	Capacity int
	// Policy is what Produce does at capacity.
	Policy OverloadPolicy
}

// LimitTopic applies a backlog limit to every partition of an existing
// topic. It may be called before or after producing; a zero-capacity limit
// removes the bound. Producers currently blocked under the old limit are
// woken to re-evaluate against the new one.
func (b *Broker) LimitTopic(name string, l TopicLimit) error {
	t, err := b.topic(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.cap, t.policy = l.Capacity, l.Policy
	for i := range t.parts {
		t.parts[i].cond.Broadcast()
	}
	t.mu.Unlock()
	b.logger().Debug("topic limited", "topic", name, "capacity", l.Capacity, "policy", l.Policy.String())
	return nil
}

// Backlog reports the number of retained records not yet committed by every
// consumer group, summed over the topic's partitions — the queue depth the
// admission-control watermarks are measured against.
func (b *Broker) Backlog(name string) (int64, error) {
	t, err := b.topic(name)
	if err != nil {
		return 0, err
	}
	var n int64
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.parts {
		n += int64(t.parts[i].backlog())
	}
	return n, nil
}

// PinReplayFloor records, per partition, the lowest offset a checkpoint
// replay may re-read (typically the checkpointed committed offsets). The
// DropOldestUncommitted policy never sheds a record at or below the pinned
// floor even if the live commit floor has moved past it, so a post-crash
// replay from the checkpoint re-reads exactly the bytes the original run
// saw. Partitions missing from offsets are pinned at 0.
func (b *Broker) PinReplayFloor(name string, offsets map[int]int64) error {
	t, err := b.topic(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.parts {
		p := &t.parts[i]
		// The replay floor is monotone: pinning an older generation (e.g.
		// falling back past a corrupted checkpoint) must not expose records
		// protected by a newer pin — everything below the high-water mark
		// may still be re-read by some replay.
		if !p.pinned || offsets[i] > p.replayFloor {
			p.replayFloor = offsets[i]
		}
		p.pinned = true
	}
	return nil
}
