package msg

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"datacron/internal/obs"
)

// ErrConsumerClosed is returned by operations on a consumer after Close.
// It is distinct from ErrClosed, which signals end-of-stream on the topic.
var ErrConsumerClosed = errors.New("msg: consumer closed")

// ErrGroupBusy is returned by NewConsumer while another consumer of the
// same group and topic is open: a consumer owns every partition of its
// topic, so a group has at most one.
var ErrGroupBusy = errors.New("msg: consumer group already has an open consumer")

// group holds the state of one (groupID, topic) pair: whether a consumer
// of it is open, and its committed offsets.
type group struct {
	mu        sync.Mutex
	id        string
	open      bool          // a consumer of the group is open
	committed map[int]int64 // partition -> next offset to consume
}

func groupKey(groupID, topic string) string { return groupID + "/" + topic }

func (b *Broker) group(groupID, topicName string) *group {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := groupKey(groupID, topicName)
	g, ok := b.groups[k]
	if !ok {
		g = &group{id: groupID, committed: make(map[int]int64)}
		b.groups[k] = g
		//lint:ignore boundedchan one entry per consumer group the process creates; groups are not per-record state
		b.topicGroups[topicName] = append(b.topicGroups[topicName], g)
	}
	return g
}

func (g *group) committedOffset(partition int) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.committed[partition]
}

func (g *group) commit(partition int, nextOffset int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if nextOffset > g.committed[partition] {
		g.committed[partition] = nextOffset
	}
}

// CommittedOffsets returns a copy of the committed offsets (partition ->
// next offset to consume) of a consumer group on a topic. An unknown group
// yields an empty map; a checkpointer can therefore read group progress
// without joining the group or touching broker internals.
func (b *Broker) CommittedOffsets(groupID, topicName string) map[int]int64 {
	b.mu.RLock()
	g, ok := b.groups[groupKey(groupID, topicName)]
	b.mu.RUnlock()
	out := make(map[int]int64)
	if !ok {
		return out
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for p, off := range g.committed {
		out[p] = off
	}
	return out
}

// RestoreOffsets overwrites a group's committed offsets with a checkpointed
// snapshot. Unlike Commit it moves offsets backwards as well as forwards —
// recovery must be able to rewind a group past commits that were made after
// the checkpoint being restored. A consumer takes its group's committed
// offsets when it opens, so recovery opens its consumer after restoring.
func (b *Broker) RestoreOffsets(groupID, topicName string, offsets map[int]int64) {
	g := b.group(groupID, topicName)
	g.mu.Lock()
	g.committed = make(map[int]int64, len(offsets))
	for p, off := range offsets {
		g.committed[p] = off
	}
	g.mu.Unlock()
	// The rewind moves the commit floor backwards, growing the uncommitted
	// backlog admission control is measured against.
	if t, err := b.topic(topicName); err == nil {
		for p := range t.parts {
			b.noteCommit(t, p)
		}
	}
}

// Consumer reads every partition of a topic for a consumer group, which has
// at most one open consumer per topic. A polled batch belongs to the
// caller: its records are copies, valid until the caller overwrites them
// (see PollInto). Consumers are not safe for concurrent use; create one per
// goroutine.
type Consumer struct {
	broker *Broker
	grp    *group
	t      *topic
	member string

	positions []int64 // next fetch offset, indexed by partition
	polled    int64   // records returned by the polls since creation
	closed    bool

	// lag is the "msg.lag.<group>/<topic>" gauge the health lag checker
	// reads, resolved once so Poll never looks it up; nil when the broker
	// is not instrumented. The group's one consumer sets it.
	lag *obs.Gauge
}

// registry returns the broker's attached registry, nil when uninstrumented.
func (b *Broker) registry() *obs.Registry {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.obs
}

// NewConsumer opens the consumer group's consumer of a topic. It owns every
// partition, and starts each at the group's committed offset as it stands
// now. While it is open, NewConsumer fails for the same group and topic
// with ErrGroupBusy; Close releases the group. member names the consumer in
// its Stats.
func (b *Broker) NewConsumer(groupID, topicName, member string) (*Consumer, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	g := b.group(groupID, topicName)
	c := &Consumer{
		broker:    b,
		grp:       g,
		t:         t,
		member:    member,
		positions: make([]int64, len(t.parts)),
	}
	g.mu.Lock()
	busy := g.open
	if !busy {
		g.open = true
		for p := range c.positions {
			c.positions[p] = g.committed[p]
		}
	}
	g.mu.Unlock()
	if busy {
		return nil, fmt.Errorf("%w: %s", ErrGroupBusy, groupKey(groupID, topicName))
	}
	if reg := b.registry(); reg != nil {
		c.lag = reg.Gauge("msg.lag." + groupKey(groupID, topicName))
	}
	return c, nil
}

// Poll returns up to max records from the topic's partitions in a fresh
// slice: it is PollInto with a nil dst, for callers that keep their batches.
func (c *Consumer) Poll(ctx context.Context, max int) ([]Record, error) {
	return c.PollInto(ctx, nil, max)
}

// PollInto appends up to max records from the topic's partitions to dst and
// returns the extended slice. When several partitions have buffered records
// it fetches from the one whose head record has the earliest event time
// (ties broken by partition index), so consumption order is a pure function
// of the fetch positions: a consumer resuming from restored offsets replays
// the exact sequence the original consumer saw — the property crash
// recovery relies on. A batch is one partition's run: consecutive offsets of
// that one partition from its fetch position, so committing a batch's last
// record commits the whole batch (TestPollBatchIsOnePartitionsRun). It blocks until a record is available on any
// partition, the topic is closed (ErrClosed), or the context is cancelled;
// on an error it returns dst unchanged. Polled records are NOT committed
// automatically; call Commit.
//
// The caller owns dst and the records appended to it: they are copies, and
// stay valid until the caller overwrites them, whatever the broker does to
// its log afterwards. A dst with room for max more records is filled in
// place with no allocation, so a run loop that polls into a reused buffer
// copies each record once on its way out of the log. A record's Key and
// Value share the log's storage and must not be modified.
func (c *Consumer) PollInto(ctx context.Context, dst []Record, max int) ([]Record, error) {
	return c.observedPoll(ctx, dst, max, true)
}

// TryPollInto is PollInto without the wait: when some partition has
// buffered records it appends exactly the batch PollInto would, and
// otherwise it returns dst unchanged and a nil error at once — it neither
// blocks nor reports end-of-stream. A caller pipelining its work polls the
// next batch with it while the previous one is still being processed,
// without ever waiting on a quiet stream. An empty TryPollInto leaves the
// lag gauge as it was.
func (c *Consumer) TryPollInto(dst []Record, max int) ([]Record, error) {
	return c.observedPoll(context.Background(), dst, max, false)
}

func (c *Consumer) observedPoll(ctx context.Context, dst []Record, max int, block bool) ([]Record, error) {
	n := len(dst)
	dst, err := c.poll(ctx, dst, max, block)
	c.polled += int64(len(dst) - n)
	if c.lag == nil || (!block && len(dst) == n && err == nil) {
		return dst, err
	}
	if lag, lerr := c.Lag(); lerr == nil {
		c.lag.Set(float64(lag))
	}
	return dst, err
}

// poll is the one fetch path behind PollInto and TryPollInto: it reads every
// partition's head and appends the batch to dst in one critical section on
// the topic. With block false it returns (dst, nil) where PollInto would
// wait.
func (c *Consumer) poll(ctx context.Context, dst []Record, max int, block bool) ([]Record, error) {
	if c.closed {
		return dst, ErrConsumerClosed
	}
	if max <= 0 {
		max = 1
	}
	t := c.t
	// As in Fetch, the context's cancellation wakes the wait, registered
	// under t.mu just before the first wait.
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		best, head := -1, 0
		var bestTime time.Time
		for p := range t.parts {
			l := &t.parts[p].log
			if i := l.search(c.positions[p]); i < l.len() {
				if ts := l.at(i).time; best < 0 || ts.Before(bestTime) {
					best, head, bestTime = p, i, ts
				}
			}
		}
		if best >= 0 {
			l := &t.parts[best].log
			dst = l.appendOut(dst, head, min(head+max, l.len()), t.name, best)
			c.positions[best] = dst[len(dst)-1].Offset + 1
			return dst, nil
		}
		if !block {
			return dst, nil
		}
		if t.closed {
			return dst, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		if stop == nil {
			stop = context.AfterFunc(ctx, t.wakePolls)
		}
		t.polls.Wait()
	}
}

// Commit records that every record of rec's partition up to and including
// rec has been processed. On a limited topic this may shrink the partition's
// uncommitted backlog and wake producers blocked on backpressure.
func (c *Consumer) Commit(rec Record) {
	c.grp.commit(rec.Partition, rec.Offset+1)
	c.broker.noteCommit(c.t, rec.Partition)
}

// SeekTo moves the consumer's fetch position of a partition to offset: the
// next Poll touching that partition resumes there. It rewinds as well as
// fast-forwards — recovery and redelivery both need to re-read records that
// were fetched but whose effects were lost. The committed offset is not
// changed.
func (c *Consumer) SeekTo(partition int, offset int64) error {
	if c.closed {
		return ErrConsumerClosed
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrOffsetOutRange, offset)
	}
	if partition < 0 || partition >= len(c.positions) {
		return fmt.Errorf("%w: %d", ErrBadPartition, partition)
	}
	c.positions[partition] = offset
	return nil
}

// Lag returns the total number of records in the topic that have been
// produced but not yet fetched by this consumer.
func (c *Consumer) Lag() (int64, error) {
	if c.closed {
		return 0, ErrConsumerClosed
	}
	var lag int64
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	for p, pos := range c.positions {
		if d := c.t.parts[p].next - pos; d > 0 {
			lag += d
		}
	}
	return lag, nil
}

// Close releases the consumer group, so a new consumer of it may open and
// resume at its committed offsets.
func (c *Consumer) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.grp.mu.Lock()
	c.grp.open = false
	c.grp.mu.Unlock()
}

// Drain reads all records currently in the topic from the beginning,
// independent of any group — a convenience for batch-layer components that
// re-process a full log. It does not block for future records.
func (b *Broker) Drain(topicName string) ([]Record, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	n := 0
	for p := range t.parts {
		n += t.parts[p].log.len()
	}
	out := make([]Record, 0, n)
	for p := range t.parts {
		l := &t.parts[p].log
		out = l.appendOut(out, 0, l.len(), t.name, p)
	}
	t.mu.Unlock()
	// Merge partitions by time to give the batch layer a coherent order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}
