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
	if n, err := b.Partitions(topicName); err == nil {
		for p := 0; p < n; p++ {
			b.noteCommit(topicName, p)
		}
	}
}

// Consumer reads every partition of a topic for a consumer group, which has
// at most one open consumer per topic. Consumers are not safe for
// concurrent use; create one per goroutine.
type Consumer struct {
	broker    *Broker
	grp       *group
	topicName string
	member    string

	positions []int64 // next fetch offset, indexed by partition
	polled    int64   // records returned by Poll since creation
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
	n, err := b.Partitions(topicName)
	if err != nil {
		return nil, err
	}
	g := b.group(groupID, topicName)
	c := &Consumer{
		broker:    b,
		grp:       g,
		topicName: topicName,
		member:    member,
		positions: make([]int64, n),
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

// Poll returns up to max records from the topic's partitions.
// When several partitions have buffered records it fetches from the one
// whose head record has the earliest event time (ties broken by partition
// index), so consumption order is a pure function of the fetch positions:
// a consumer resuming from restored offsets replays the exact sequence the
// original consumer saw — the property crash recovery relies on. It blocks
// until at least one record is available, the topic is closed (ErrClosed),
// or the context is cancelled. Polled records are NOT committed
// automatically; call Commit.
func (c *Consumer) Poll(ctx context.Context, max int) ([]Record, error) {
	return c.observedPoll(ctx, max, true)
}

// TryPoll is Poll without the wait: when some partition has buffered
// records it returns exactly the batch Poll would, and otherwise it
// returns no records and a nil error at once — it neither blocks nor reports
// end-of-stream. A caller pipelining its work polls the next batch with it
// while the previous one is still being processed, without ever waiting on
// a quiet stream. An empty TryPoll leaves the lag gauge as it was.
func (c *Consumer) TryPoll(max int) ([]Record, error) {
	return c.observedPoll(context.Background(), max, false)
}

func (c *Consumer) observedPoll(ctx context.Context, max int, block bool) ([]Record, error) {
	recs, err := c.poll(ctx, max, block)
	c.polled += int64(len(recs))
	if c.lag == nil || (!block && len(recs) == 0 && err == nil) {
		return recs, err
	}
	if lag, lerr := c.Lag(); lerr == nil {
		c.lag.Set(float64(lag))
	}
	return recs, err
}

// poll is the one fetch path behind Poll and TryPoll; with block false it
// returns (nil, nil) where Poll would wait for records.
func (c *Consumer) poll(ctx context.Context, max int, block bool) ([]Record, error) {
	if c.closed {
		return nil, ErrConsumerClosed
	}
	if max <= 0 {
		max = 1
	}
	fetch := func(ctx context.Context, p int) ([]Record, error) {
		recs, err := c.broker.Fetch(ctx, c.topicName, p, c.positions[p], max)
		if err != nil {
			return nil, err
		}
		c.positions[p] = recs[len(recs)-1].Offset + 1
		return recs, nil
	}
	if p, ok, err := c.earliestReady(); err != nil {
		return nil, err
	} else if ok {
		return fetch(ctx, p)
	}
	if !block {
		return nil, nil
	}
	// Nothing buffered anywhere: block on partition 0. ErrClosed from it
	// only means end-of-stream for the whole consumer if no other
	// partition received records while we were blocked.
	recs, err := fetch(ctx, 0)
	if errors.Is(err, ErrClosed) {
		// The topic is closed, so partition contents are final: one more
		// non-blocking scan either drains a remaining partition or
		// confirms end-of-stream.
		if p, ok, serr := c.earliestReady(); serr == nil && ok {
			return fetch(ctx, p)
		}
	}
	return recs, err
}

// earliestReady returns the partition with buffered records whose head
// record has the earliest event time, or ok=false when no partition has
// records at the current positions.
func (c *Consumer) earliestReady() (part int, ok bool, err error) {
	best := -1
	var bestTime time.Time
	for p, pos := range c.positions {
		t, has, err := c.broker.PeekTime(c.topicName, p, pos)
		if err != nil {
			return 0, false, err
		}
		if has && (best < 0 || t.Before(bestTime)) {
			best, bestTime = p, t
		}
	}
	return best, best >= 0, nil
}

// Commit records that every record of rec's partition up to and including
// rec has been processed. On a limited topic this may shrink the partition's
// uncommitted backlog and wake producers blocked on backpressure.
func (c *Consumer) Commit(rec Record) {
	c.grp.commit(rec.Partition, rec.Offset+1)
	c.broker.noteCommit(c.topicName, rec.Partition)
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
	for p, pos := range c.positions {
		end, err := c.broker.EndOffset(c.topicName, p)
		if err != nil {
			return 0, err
		}
		if d := end - pos; d > 0 {
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
	n, err := b.Partitions(topicName)
	if err != nil {
		return nil, err
	}
	var out []Record
	for p := 0; p < n; p++ {
		end, err := b.EndOffset(topicName, p)
		if err != nil {
			return nil, err
		}
		// Check retained records, not just the end offset: on a limited topic
		// shedding can leave end > 0 with nothing retained, and a blocking
		// fetch against an open, empty partition would never return.
		if _, has, err := b.PeekTime(topicName, p, 0); err != nil {
			return nil, err
		} else if end == 0 || !has {
			continue
		}
		recs, err := b.Fetch(context.Background(), topicName, p, 0, int(end))
		if err != nil && !errors.Is(err, ErrClosed) {
			return nil, err
		}
		out = append(out, recs...)
	}
	// Merge partitions by time to give the batch layer a coherent order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}
