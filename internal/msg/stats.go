package msg

import "sort"

// TopicStats is a point-in-time summary of one topic.
type TopicStats struct {
	Name       string
	Partitions int
	Records    int64 // records currently retained, summed over partitions
	Bytes      int64 // summed value sizes of retained records
	Backlog    int64 // retained records not yet committed by every group
	Capacity   int   // per-partition backlog capacity; 0 = unbounded
	Evicted    int64 // records shed by DropOldestUncommitted since creation
	Rejected   int64 // produces rejected at capacity since creation
}

// BrokerStats is a race-free, value-type snapshot of the broker, topics
// sorted by name.
type BrokerStats struct {
	Topics []TopicStats
}

// Stats captures every topic's retained depth and size. Safe to call
// concurrently with producers and consumers.
func (b *Broker) Stats() BrokerStats {
	b.mu.RLock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()

	var s BrokerStats
	for _, t := range topics {
		ts := TopicStats{Name: t.name, Partitions: len(t.parts)}
		t.mu.Lock()
		ts.Capacity = t.cap
		for i := range t.parts {
			p := &t.parts[i]
			ts.Records += int64(p.log.len())
			ts.Bytes += p.log.bytes
			ts.Backlog += int64(p.backlog())
			ts.Evicted += p.evicted
			ts.Rejected += p.rejected
		}
		t.mu.Unlock()
		s.Topics = append(s.Topics, ts)
	}
	sort.Slice(s.Topics, func(i, j int) bool { return s.Topics[i].Name < s.Topics[j].Name })
	return s
}

// Topic returns the named topic's stats and whether it exists.
func (s BrokerStats) Topic(name string) (TopicStats, bool) {
	for _, t := range s.Topics {
		if t.Name == name {
			return t, true
		}
	}
	return TopicStats{}, false
}

// ConsumerStats is a value-type snapshot of one consumer's progress. Like
// the consumer itself it must be taken from the consumer's own goroutine.
type ConsumerStats struct {
	Group      string
	Topic      string
	Member     string
	Partitions []int // every partition of the topic
	Polled     int64 // records returned by the consumer's polls since creation
	Lag        int64 // produced but not yet fetched, over every partition
}

// Stats captures the consumer's partitions, poll progress and lag.
func (c *Consumer) Stats() ConsumerStats {
	s := ConsumerStats{
		Group:  c.grp.id,
		Topic:  c.t.name,
		Member: c.member,
		Polled: c.polled,
	}
	s.Partitions = make([]int, len(c.positions))
	for p := range s.Partitions {
		s.Partitions[p] = p
	}
	if lag, err := c.Lag(); err == nil {
		s.Lag = lag
	}
	return s
}
