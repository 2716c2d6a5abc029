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

// group holds the coordination state for one (groupID, topic) pair:
// member list, partition assignment generation, and committed offsets.
type group struct {
	mu        sync.Mutex
	id        string
	topicName string
	members   []string      // sorted member IDs
	gen       int           // bumped on every membership change
	committed map[int]int64 // partition -> next offset to consume
}

func groupKey(groupID, topic string) string { return groupID + "/" + topic }

func (b *Broker) group(groupID, topicName string) *group {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := groupKey(groupID, topicName)
	g, ok := b.groups[k]
	if !ok {
		g = &group{id: groupID, topicName: topicName, committed: make(map[int]int64)}
		b.groups[k] = g
		//lint:ignore boundedchan one entry per consumer group the process creates; groups are not per-record state
		b.topicGroups[topicName] = append(b.topicGroups[topicName], g)
	}
	return g
}

// join adds a member and returns the new generation.
func (g *group) join(member string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m == member {
			return g.gen
		}
	}
	//lint:ignore boundedchan bounded by the number of consumers the pipeline constructs; membership is not per-record state
	g.members = append(g.members, member)
	sort.Strings(g.members)
	g.gen++
	return g.gen
}

// leave removes a member and returns the new generation.
func (g *group) leave(member string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m == member {
			g.members = append(g.members[:i], g.members[i+1:]...)
			g.gen++
			break
		}
	}
	return g.gen
}

// assignment returns the partitions owned by member under range assignment,
// along with the generation the assignment is valid for. When that is still
// generation have, it returns no partitions: the caller's are current.
func (g *group) assignment(member string, numPartitions, have int) ([]int, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gen == have {
		return nil, have
	}
	idx := -1
	for i, m := range g.members {
		if m == member {
			idx = i
			break
		}
	}
	if idx < 0 || len(g.members) == 0 {
		return nil, g.gen
	}
	parts := make([]int, 0, numPartitions/len(g.members)+1)
	for p := 0; p < numPartitions; p++ {
		if p%len(g.members) == idx {
			parts = append(parts, p)
		}
	}
	return parts, g.gen
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
// the checkpoint being restored. Live consumers of the group pick the
// restored offsets up at their next rebalance; recovery normally creates
// its consumers after restoring.
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

// Consumer reads a topic as part of a consumer group. Consumers are not
// safe for concurrent use; create one per goroutine.
type Consumer struct {
	broker    *Broker
	grp       *group
	topicName string
	member    string

	gen       int
	parts     []int
	positions map[int]int64 // partition -> next fetch offset
	polled    int64         // records returned by Poll since creation
	closed    bool

	// lag is the "msg.lag.<group>/<topic>" gauge the health lag checker
	// reads, resolved once so Poll never looks it up; nil when the broker
	// is not instrumented. The latest reading wins, which is what a
	// rebalancing group wants.
	lag *obs.Gauge
}

// registry returns the broker's attached registry, nil when uninstrumented.
func (b *Broker) registry() *obs.Registry {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.obs
}

// NewConsumer joins the consumer group for a topic. Member IDs must be
// unique within a group.
func (b *Broker) NewConsumer(groupID, topicName, member string) (*Consumer, error) {
	if _, err := b.Partitions(topicName); err != nil {
		return nil, err
	}
	g := b.group(groupID, topicName)
	g.join(member)
	c := &Consumer{
		broker:    b,
		grp:       g,
		topicName: topicName,
		member:    member,
		gen:       -1,
		positions: make(map[int]int64),
	}
	if reg := b.registry(); reg != nil {
		c.lag = reg.Gauge("msg.lag." + groupKey(groupID, topicName))
	}
	return c, nil
}

// refresh re-reads the assignment after a rebalance and resets fetch
// positions of newly owned partitions to the group's committed offsets.
func (c *Consumer) refresh() error {
	n, err := c.broker.Partitions(c.topicName)
	if err != nil {
		return err
	}
	parts, gen := c.grp.assignment(c.member, n, c.gen)
	if gen == c.gen {
		return nil
	}
	c.gen = gen
	c.parts = parts
	c.positions = make(map[int]int64, len(parts))
	for _, p := range parts {
		c.positions[p] = c.grp.committedOffset(p)
	}
	return nil
}

// Assignment returns the partitions currently owned by this consumer.
func (c *Consumer) Assignment() []int {
	if err := c.refresh(); err != nil {
		return nil
	}
	return append([]int(nil), c.parts...)
}

// Poll returns up to max records from the consumer's assigned partitions.
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

// TryPoll is Poll without the wait: when some assigned partition has
// buffered records it returns exactly the batch Poll would, and otherwise it
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
	if err := c.refresh(); err != nil {
		return nil, err
	}
	if len(c.parts) == 0 {
		return nil, fmt.Errorf("msg: consumer %s has no assigned partitions", c.member)
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
	// Nothing buffered anywhere: block on the lowest assigned partition.
	// ErrClosed from it only means end-of-stream for the whole consumer if
	// no other partition received records while we were blocked.
	recs, err := fetch(ctx, c.parts[0])
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

// earliestReady returns the assigned partition with buffered records whose
// head record has the earliest event time, or ok=false when no assigned
// partition has records at the current positions.
func (c *Consumer) earliestReady() (part int, ok bool, err error) {
	best := -1
	var bestTime time.Time
	for _, p := range c.parts {
		t, has, err := c.broker.PeekTime(c.topicName, p, c.positions[p])
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

// SeekTo moves the consumer's fetch position of an assigned partition to
// offset: the next Poll touching that partition resumes there. It rewinds
// as well as fast-forwards — recovery and redelivery both need to re-read
// records that were fetched but whose effects were lost. The committed
// offset is not changed.
func (c *Consumer) SeekTo(partition int, offset int64) error {
	if c.closed {
		return ErrConsumerClosed
	}
	if err := c.refresh(); err != nil {
		return err
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrOffsetOutRange, offset)
	}
	for _, p := range c.parts {
		if p == partition {
			c.positions[partition] = offset
			return nil
		}
	}
	return fmt.Errorf("msg: consumer %s does not own partition %d", c.member, partition)
}

// Lag returns the total number of records in assigned partitions that have
// been produced but not yet fetched by this consumer.
func (c *Consumer) Lag() (int64, error) {
	if c.closed {
		return 0, ErrConsumerClosed
	}
	if err := c.refresh(); err != nil {
		return 0, err
	}
	var lag int64
	for _, p := range c.parts {
		end, err := c.broker.EndOffset(c.topicName, p)
		if err != nil {
			return 0, err
		}
		if d := end - c.positions[p]; d > 0 {
			lag += d
		}
	}
	return lag, nil
}

// Close leaves the consumer group, triggering a rebalance for remaining
// members.
func (c *Consumer) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.grp.leave(c.member)
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
