package msg

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"datacron/internal/obs"
)

// Errors returned by broker operations.
var (
	ErrTopicExists    = errors.New("msg: topic already exists")
	ErrUnknownTopic   = errors.New("msg: unknown topic")
	ErrBadPartition   = errors.New("msg: partition out of range")
	ErrClosed         = errors.New("msg: broker closed")
	ErrOffsetOutRange = errors.New("msg: offset out of range")
)

// Broker is an in-process, thread-safe message broker.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*topic
	groups map[string]*group // keyed by groupID + "/" + topic
	// topicGroups lists each topic's groups in creation order. A list only
	// grows, so a reader may keep its slice after releasing mu.
	topicGroups map[string][]*group
	closed      bool
	obs         *obs.Registry
	log         *slog.Logger
}

// topic is a named set of partition logs under one lock. Each partition's
// cond wakes the Fetch waiters and blocked producers of that partition; polls
// wakes consumers waiting on any partition. Every append, CloseTopic and
// Close broadcasts polls.
type topic struct {
	name   string
	mu     sync.Mutex
	parts  []partition
	polls  *sync.Cond
	closed bool

	// Admission control (zero values: unbounded, the seed behaviour).
	cap    int            // max uncommitted retained records per partition; 0 = unbounded
	policy OverloadPolicy // what Produce does at capacity

	m *topicMetrics // nil when the broker is not instrumented
}

// topicMetrics caches the per-topic overload counters the health overload
// checker reads, so the produce path never resolves names. A topic's
// records, bytes and backlog are in Broker.Stats, not in metrics.
type topicMetrics struct {
	evicted  *obs.Counter // records shed by DropOldestUncommitted
	rejected *obs.Counter // produces rejected at capacity
	blocked  *obs.Counter // produces that had to wait under Block
}

func newTopicMetrics(reg *obs.Registry, name string) *topicMetrics {
	return &topicMetrics{
		evicted:  reg.Counter("msg.evicted." + name),
		rejected: reg.Counter("msg.rejected." + name),
		blocked:  reg.Counter("msg.blocked." + name),
	}
}

// partition is an offset-addressed log. Records are kept sorted by offset;
// the DropOldestUncommitted policy may shed records from the middle of the
// retained window, so the log is sparse where records were shed and readers
// address it by offset, never by index. The topic's mutex guards it.
type partition struct {
	cond *sync.Cond // on the topic's mutex
	log  partLog
	next int64 // next offset to assign

	floor       int64 // lowest offset some consumer group has not committed
	replayFloor int64 // lowest offset a checkpoint replay may re-read
	pinned      bool  // replayFloor has been pinned
	evicted     int64 // records shed by DropOldestUncommitted
	rejected    int64 // produces rejected at capacity
}

// backlog counts retained records not yet committed by every consumer group.
// Callers hold the topic's mutex.
func (p *partition) backlog() int {
	return p.log.len() - p.log.search(p.floor)
}

// shedOldest removes the oldest retained record that is both uncommitted and
// above the pinned replay floor. It reports false when nothing is sheddable —
// every retained record is committed or replay-protected. Callers hold the
// topic's mutex.
func (p *partition) shedOldest() bool {
	bound := p.floor
	if p.pinned && p.replayFloor > bound {
		bound = p.replayFloor
	}
	i := p.log.search(bound)
	if i >= p.log.len() {
		return false
	}
	p.log.removeAt(i)
	p.evicted++
	return true
}

// part returns partition i, or ErrBadPartition when i is outside the topic.
func (t *topic) part(i int) (*partition, error) {
	if i < 0 || i >= len(t.parts) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadPartition, i, len(t.parts))
	}
	return &t.parts[i], nil
}

// close marks the topic closed and wakes every waiter on it.
func (t *topic) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for i := range t.parts {
		t.parts[i].cond.Broadcast()
	}
	t.polls.Broadcast()
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics:      make(map[string]*topic),
		groups:      make(map[string]*group),
		topicGroups: make(map[string][]*group),
		log:         obs.NopLogger(),
	}
}

// SetLogger attaches a structured logger for topic lifecycle events; nil
// silences them again. Safe to call concurrently with broker use.
func (b *Broker) SetLogger(l *slog.Logger) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log = obs.Component(l, "msg")
}

// logger returns the current logger under the read lock's protection.
func (b *Broker) logger() *slog.Logger {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.log
}

// CreateTopic creates a topic with the given number of partitions (minimum 1).
func (b *Broker) CreateTopic(name string, partitions int) error {
	if partitions < 1 {
		partitions = 1
	}
	t := &topic{name: name, parts: make([]partition, partitions)}
	t.polls = sync.NewCond(&t.mu)
	for i := range t.parts {
		t.parts[i].cond = sync.NewCond(&t.mu)
	}
	for {
		b.mu.RLock()
		closed := b.closed
		_, exists := b.topics[name]
		reg := b.obs
		b.mu.RUnlock()
		if closed {
			return ErrClosed
		}
		if exists {
			return fmt.Errorf("%w: %s", ErrTopicExists, name)
		}
		// Metric handles are created outside the broker lock: Registry
		// lookups take the registry mutex, and nesting it under b.mu would
		// stall every producer and consumer behind metric registration.
		// Handle creation is idempotent by name, so losing the race below
		// only wastes the lookup.
		if reg != nil {
			t.m = newTopicMetrics(reg, name)
		} else {
			t.m = nil
		}
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return ErrClosed
		}
		if _, ok := b.topics[name]; ok {
			b.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrTopicExists, name)
		}
		if b.obs != reg {
			// Registry swapped between the read and the commit: rebuild the
			// handles against the current registry.
			b.mu.Unlock()
			continue
		}
		b.topics[name] = t
		b.log.Debug("topic created", "topic", name, "partitions", partitions)
		b.mu.Unlock()
		return nil
	}
}

// Instrument attaches a metrics registry: per-topic evicted, rejected and
// blocked counters, plus the consumer-lag gauge of consumers created
// afterwards. Call it before producing; topics created later are
// instrumented automatically. A nil registry detaches instrumentation for
// new topics/consumers but leaves existing handles live.
func (b *Broker) Instrument(reg *obs.Registry) {
	b.mu.Lock()
	b.obs = reg
	var missing []string
	if reg != nil {
		for name, t := range b.topics {
			if t.m == nil {
				missing = append(missing, name)
			}
		}
	}
	b.mu.Unlock()
	if len(missing) == 0 {
		return
	}
	// Build the handles outside the broker lock (the registry has its own
	// mutex), then commit them only if the registry is still the one they
	// were built against.
	built := make(map[string]*topicMetrics, len(missing))
	for _, name := range missing {
		built[name] = newTopicMetrics(reg, name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.obs != reg {
		return
	}
	for name, m := range built {
		if t, ok := b.topics[name]; ok && t.m == nil {
			t.m = m
		}
	}
}

// Partitions returns the number of partitions of a topic.
func (b *Broker) Partitions(topicName string) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	return len(t.parts), nil
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTopic, name)
	}
	return t, nil
}

// Produce appends a record to the topic, choosing the partition by key hash
// (or partition 0 for an empty key on a single-partition topic). It returns
// the record as stored, with partition and offset filled in. It is a
// ProduceBatch of one record.
//
// On a topic limited with LimitTopic, Produce applies the topic's overload
// policy when the partition's uncommitted backlog is at capacity: Block
// waits until the backlog drains (returning ctx.Err() if the context is
// cancelled or its deadline passes first), DropNewest and a
// DropOldestUncommitted with nothing sheddable return an error wrapping
// ErrTopicFull, and DropOldestUncommitted otherwise sheds the oldest
// uncommitted record to make room. On unbounded topics the context is not
// consulted.
func (b *Broker) Produce(ctx context.Context, topicName, key string, value []byte, ts time.Time) (Record, error) {
	recs := [1]Record{{Key: key, Value: value, Time: ts}}
	n, err := b.ProduceBatch(ctx, topicName, recs[:])
	if err != nil {
		return Record{}, err
	}
	if n == 0 {
		return Record{}, b.refusedErr(topicName, recs[0].Partition)
	}
	return recs[0], nil
}

// refusedErr describes a record the topic's overload policy refused. It is
// the cold path of Produce, kept out of it so the hot path never touches fmt.
func (b *Broker) refusedErr(topicName string, pIdx int) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	t.mu.Lock()
	capacity, policy := t.cap, t.policy
	t.mu.Unlock()
	return fmt.Errorf("%w: %s/%d backlog at capacity %d under %s",
		ErrTopicFull, topicName, pIdx, capacity, policy)
}

// RejectedOffset marks a batch record that was refused admission: after
// ProduceBatch returns, records the overload policy dropped carry this
// offset instead of an assigned one.
const RejectedOffset int64 = -1

// ProduceBatch appends a batch of records to the topic, routing each by key
// hash exactly like Produce, under one lock acquisition with one metrics
// flush per touched partition. Each record's Key, Value and Time must be set
// by the caller; Topic, Partition and Offset are assigned in place. A run of
// consecutive records with equal keys is hashed once.
//
// Admission is still per record: on a topic limited with LimitTopic, each
// record runs the topic's overload policy individually, so a batch straddling
// the capacity boundary is admitted exactly as the same records produced one
// by one would be. Records refused under the drop policies are marked
// RejectedOffset and counted — they are not errors, and the rest of the
// batch proceeds. The returned count is the number admitted. A non-nil error
// (topic closed, or context cancelled while blocked under the Block policy)
// aborts the remaining records of the batch; records already admitted stand,
// identifiable by their non-negative offsets. Partitions are produced in
// ascending index order.
//
// Relative order within a partition follows the batch order, and partitioning
// follows HashKey, so a stream produced through ProduceBatch is
// record-for-record identical to the same stream produced through Produce.
func (b *Broker) ProduceBatch(ctx context.Context, topicName string, recs []Record) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Group the batch by partition in one pass, without allocating: each
	// partition's records are threaded into a chain in batch order through
	// their Offset fields (the index of the partition's next record, or
	// RejectedOffset at the chain's end). produceChain walks a chain and
	// overwrites every link with the assigned offset or RejectedOffset.
	nParts := len(t.parts)
	var onStack [2 * 8]int // heads then tails, for up to 8 partitions
	ends := onStack[:]
	if 2*nParts > len(ends) {
		ends = make([]int, 2*nParts)
	}
	heads, tails := ends[:nParts], ends[nParts:2*nParts]
	for i := range heads {
		heads[i] = -1
	}
	part := 0
	for i := range recs {
		// A key equal to the previous one routes the same way. Keys sliced
		// from one string compare equal on their pointer alone.
		if i == 0 || recs[i].Key != recs[i-1].Key {
			part = HashKey(recs[i].Key, nParts)
		}
		recs[i].Topic = t.name
		recs[i].Partition = part
		recs[i].Offset = RejectedOffset
		if heads[part] < 0 {
			heads[part] = i
		} else {
			recs[tails[part]].Offset = int64(i)
		}
		tails[part] = i
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	admitted := 0
	for pIdx, head := range heads {
		if head < 0 {
			continue
		}
		n, err := t.produceChain(ctx, pIdx, recs, head)
		admitted += n
		if err != nil {
			for _, rest := range heads[pIdx+1:] {
				rejectChain(recs, rest)
			}
			return admitted, err
		}
	}
	return admitted, nil
}

// rejectChain marks every record of the partition chain starting at index i
// RejectedOffset; a negative i is an empty chain.
func rejectChain(recs []Record, i int) {
	for i >= 0 {
		next := int(recs[i].Offset)
		recs[i].Offset = RejectedOffset
		i = next
	}
}

// produceChain appends the batch records of partition pIdx — the chain
// ProduceBatch threaded from index head — running per-record admission.
// Callers hold t.mu. Records the overload policy refuses get RejectedOffset;
// a closed topic or a context cancellation while blocked aborts the
// partition's remaining records, which get RejectedOffset too.
func (t *topic) produceChain(ctx context.Context, pIdx int, recs []Record, head int) (int, error) {
	p := &t.parts[pIdx]
	var st produceState
	defer st.stopWatching()
	admitted := 0
	var admitErr error
	for i := head; i >= 0; {
		ok, err := t.admit(ctx, p, &st)
		if err != nil {
			admitErr = err
			rejectChain(recs, i)
			break
		}
		next := int(recs[i].Offset)
		if !ok {
			recs[i].Offset = RejectedOffset
			i = next
			continue
		}
		recs[i].Offset = p.next
		p.next++
		p.log.push(recs[i].Offset, recs[i].Key, recs[i].Value, recs[i].Time)
		st.pending = true
		admitted++
		i = next
	}
	st.flush(t, p)
	switch {
	case admitErr == nil:
		return admitted, nil
	case errors.Is(admitErr, ErrClosed):
		return admitted, ErrClosed
	default:
		return admitted, blockedCancelErr(t.name, pIdx, t.cap, admitErr)
	}
}

// produceState tracks one locked produce pass over a partition: the blocking
// episode, whether appended records still need a consumer wakeup, and the
// metric deltas deferred so a whole batch flushes them once.
type produceState struct {
	evictedN  int
	rejectedN int
	pending   bool // records appended since the last Broadcast
	blocked   bool
	stop      func() bool // context watcher from the blocking path
}

func (st *produceState) stopWatching() {
	if st.stop != nil {
		st.stop()
		st.stop = nil
	}
}

// flush publishes the pass's consumer wakeup for partition p and the metric
// deltas. Callers hold t.mu. It is idempotent: the deltas reset to zero once
// published.
func (st *produceState) flush(t *topic, p *partition) {
	if st.pending {
		p.cond.Broadcast()
		t.polls.Broadcast()
		st.pending = false
	}
	if t.m != nil {
		if st.blocked {
			t.m.blocked.Inc()
		}
		if st.evictedN > 0 {
			t.m.evicted.Add(int64(st.evictedN))
		}
		if st.rejectedN > 0 {
			t.m.rejected.Add(int64(st.rejectedN))
		}
	}
	st.blocked = false
	st.evictedN, st.rejectedN = 0, 0
}

// admit runs the overload-admission loop for one incoming record of
// partition p and reports whether it may be appended. Callers hold t.mu. A
// non-nil error means the topic closed or the context was cancelled while
// blocked; refusals under the drop policies are a false verdict, not an
// error, so a batch caller can skip the one record and continue.
func (t *topic) admit(ctx context.Context, p *partition, st *produceState) (bool, error) {
	for t.cap > 0 && p.backlog() >= t.cap && !t.closed {
		switch t.policy {
		case DropNewest:
			p.rejected++
			st.rejectedN++
			return false, nil
		case DropOldestUncommitted:
			if p.shedOldest() {
				st.evictedN++
				continue
			}
			// Every retained record is committed or replay-protected:
			// nothing may be shed, so the incoming record is the one lost.
			p.rejected++
			st.rejectedN++
			return false, nil
		default: // Block
			if err := ctx.Err(); err != nil {
				return false, err
			}
			if !st.blocked {
				st.blocked = true
				// Wake the cond wait when the context is cancelled, exactly
				// like Fetch's blocking path.
				st.stop = context.AfterFunc(ctx, p.wake)
			}
			// Records this batch already appended must become visible to
			// consumers before we wait on them: without the wakeup a consumer
			// blocked in Poll or Fetch would never drain the backlog,
			// deadlocking the produce against its own batch.
			if st.pending {
				p.cond.Broadcast()
				t.polls.Broadcast()
				st.pending = false
			}
			p.cond.Wait()
		}
	}
	if t.closed {
		return false, ErrClosed
	}
	return true, nil
}

func blockedCancelErr(topicName string, pIdx, capacity int, err error) error {
	return fmt.Errorf("msg: produce %s/%d blocked at capacity %d: %w",
		topicName, pIdx, capacity, err)
}

// wake broadcasts the partition's cond under the topic's lock, and
// wakePolls does the same for the topic's polls cond. Registered as
// context-cancellation callbacks by admit's blocking path, Fetch and Poll,
// they run on the AfterFunc goroutine — never synchronously under a
// caller-held t.mu.
func (p *partition) wake() {
	p.cond.L.Lock()
	p.cond.Broadcast()
	p.cond.L.Unlock()
}

func (t *topic) wakePolls() {
	t.mu.Lock()
	t.polls.Broadcast()
	t.mu.Unlock()
}

// noteCommit recomputes a partition's commit floor — the minimum committed
// offset across every consumer group of the topic — and wakes producers
// blocked on backpressure, whose backlog may just have shrunk. Called by
// Consumer.Commit and RestoreOffsets (the floor moves backwards on a
// recovery rewind, growing the backlog again).
func (b *Broker) noteCommit(t *topic, part int) {
	if part < 0 || part >= len(t.parts) {
		return
	}
	b.mu.RLock()
	groups := b.topicGroups[t.name]
	b.mu.RUnlock()
	floor := int64(-1)
	for _, g := range groups {
		if off := g.committedOffset(part); floor < 0 || off < floor {
			floor = off
		}
	}
	if floor < 0 {
		return
	}
	p := &t.parts[part]
	t.mu.Lock()
	defer t.mu.Unlock()
	if floor != p.floor {
		p.floor = floor
		// On pinned (checkpointed) topics the replay floor is a high-water
		// mark over every commit floor ever reached: a recovery rewind lowers
		// p.floor, and the records between the restored offsets and the old
		// floor — already consumed once, about to be re-read — must stay
		// protected from eviction while the replay catches back up.
		if p.pinned && floor > p.replayFloor {
			p.replayFloor = floor
		}
		p.cond.Broadcast()
	}
}

// Fetch returns up to max records from the partition at offsets at or past
// offset. When no such records are available it blocks until some are
// produced, the topic is closed (returns io-style empty slice with
// ErrClosed), or the context is cancelled. On topics shedding under
// DropOldestUncommitted the log may be sparse: the first returned record's
// offset can be greater than the requested one.
func (b *Broker) Fetch(ctx context.Context, topicName string, partitionIdx int, offset int64, max int) ([]Record, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	p, err := t.part(partitionIdx)
	if err != nil {
		return nil, err
	}
	if offset < 0 {
		return nil, fmt.Errorf("%w: %d", ErrOffsetOutRange, offset)
	}
	if max <= 0 {
		max = 1
	}
	// The context's cancellation wakes the cond wait. It is registered just
	// before the first wait, so a fetch that finds records allocates nothing
	// for it; registering under t.mu loses no wake-up, since the callback
	// must take t.mu, which only the wait releases.
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	t.mu.Lock()
	defer t.mu.Unlock()
	for p.log.search(offset) >= p.log.len() {
		if t.closed {
			return nil, ErrClosed
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if stop == nil {
			stop = context.AfterFunc(ctx, p.wake)
		}
		p.cond.Wait()
	}
	i := p.log.search(offset)
	j := min(i+max, p.log.len())
	return p.log.appendOut(nil, i, j, t.name, partitionIdx), nil
}

// Truncate discards the tail of a partition: records at offsets >= end are
// removed, so the next produced record is assigned offset end. Truncating at
// or past the current end is a no-op. Crash recovery uses this to abort
// output that was produced after the last completed checkpoint, the
// in-process analogue of aborting an uncommitted Kafka transaction.
func (b *Broker) Truncate(topicName string, partitionIdx int, end int64) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	p, err := t.part(partitionIdx)
	if err != nil {
		return err
	}
	if end < 0 {
		return fmt.Errorf("%w: %d", ErrOffsetOutRange, end)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if end < p.next {
		p.log.truncate(p.log.search(end))
		p.next = end
	}
	return nil
}

// EndOffset returns the offset one past the last record of the partition.
func (b *Broker) EndOffset(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	p, err := t.part(partitionIdx)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return p.next, nil
}

// CloseTopic marks a topic closed: pending and future fetches and polls past
// the end return ErrClosed, signalling end-of-stream to consumers, and
// producers blocked on backpressure give up with ErrClosed. Already-buffered
// records remain fetchable.
func (b *Broker) CloseTopic(topicName string) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	t.close()
	b.logger().Debug("topic closed", "topic", topicName)
	return nil
}

// Close closes every topic, as CloseTopic does, and the broker itself:
// every later call that names a topic fails with ErrClosed. An open consumer
// reads what its topic buffered and then reaches end-of-stream.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	for _, t := range topics {
		t.close()
	}
}
