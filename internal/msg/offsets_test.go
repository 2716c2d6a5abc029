package msg

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"datacron/internal/obs"
)

func offsetsTestBroker(t *testing.T, parts, n int) *Broker {
	t.Helper()
	b := NewBroker()
	if err := b.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0).UTC()
	for i := 0; i < n; i++ {
		if _, err := b.Produce(context.Background(), "t", fmt.Sprintf("k%d", i%8), []byte{byte(i)}, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// keyFor returns a key that HashKey routes to partition p of n, so a test
// can produce to a chosen partition through the keyed path.
func keyFor(p, n int) string {
	for i := 0; ; i++ {
		if k := "k" + strconv.Itoa(i); HashKey(k, n) == p {
			return k
		}
	}
}

func TestCommittedOffsetsUnknownGroup(t *testing.T) {
	b := offsetsTestBroker(t, 2, 4)
	got := b.CommittedOffsets("ghost", "t")
	if len(got) != 0 {
		t.Fatalf("unknown group: %v", got)
	}
	// Reading offsets must not create the group: a consumer opened later
	// reads both partitions from the start.
	c, err := b.NewConsumer("ghost", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); fmt.Sprint(st.Partitions) != "[0 1]" || st.Lag != 4 {
		t.Fatalf("consumer after probe: partitions %v, lag %d; want [0 1], 4", st.Partitions, st.Lag)
	}
}

func TestCommittedOffsetsSurviveCloseRejoin(t *testing.T) {
	b := offsetsTestBroker(t, 2, 20)
	ctx := context.Background()

	c1, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	consumed := 0
	for consumed < 10 {
		recs, err := c1.Poll(ctx, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			c1.Commit(r)
			consumed++
		}
	}
	before := b.CommittedOffsets("g", "t")
	var total int64
	for _, off := range before {
		total += off
	}
	if total != 10 {
		t.Fatalf("committed %d records, want 10 (%v)", total, before)
	}

	// Close: offsets must survive the member leaving.
	c1.Close()
	if got := b.CommittedOffsets("g", "t"); len(got) != len(before) {
		t.Fatalf("offsets after close: %v, want %v", got, before)
	}
	for p, off := range before {
		if b.CommittedOffsets("g", "t")[p] != off {
			t.Fatalf("offset %d changed after close", p)
		}
	}

	// Rejoin: the new consumer starts every partition at the group's
	// committed offset, not zero.
	c2, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for {
		recs, err := c2.Poll(ctx, 100)
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			key := fmt.Sprintf("%d/%d", r.Partition, r.Offset)
			if seen[key] {
				t.Fatalf("record %s delivered twice after rejoin", key)
			}
			seen[key] = true
			c2.Commit(r)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("after rejoin consumed %d records, want the remaining 10", len(seen))
	}
}

// TestConsumerOwnsWholeTopic pins the consumer contract: a group's one open
// consumer reads every partition of its topic in event-time order, a second
// consumer of the group is refused while it is open, and a consumer starts
// at the committed offsets as they stand when it opens — after a Close and
// after a RestoreOffsets alike.
func TestConsumerOwnsWholeTopic(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("u", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	t0 := time.Unix(7000, 0).UTC()
	const total = 30
	for i := 0; i < total; i++ {
		if _, err := b.Produce(ctx, "t", keyFor((i*5)%3, 3), []byte{byte(i)}, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	// readAll polls c one record at a time (a batch comes from one
	// partition) to end-of-stream, committing the first commit records, and
	// returns the values it read.
	readAll := func(c *Consumer, commit int) []byte {
		var got []byte
		for {
			recs, err := c.Poll(ctx, 1)
			if errors.Is(err, ErrClosed) {
				return got
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if len(got) < commit {
					c.Commit(r)
				}
				got = append(got, r.Value[0])
			}
		}
	}
	inOrder := func(from int) string {
		var want []byte
		for i := from; i < total; i++ {
			want = append(want, byte(i))
		}
		return fmt.Sprint(want)
	}

	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); fmt.Sprint(st.Partitions) != "[0 1 2]" {
		t.Fatalf("partitions = %v, want [0 1 2]", st.Partitions)
	}
	if _, err := b.NewConsumer("g", "t", "m2"); !errors.Is(err, ErrGroupBusy) {
		t.Fatalf("second consumer of an open group: %v, want ErrGroupBusy", err)
	}
	other, err := b.NewConsumer("other", "t", "m1")
	if err != nil {
		t.Fatalf("consumer of another group: %v", err)
	}
	other.Close()
	onU, err := b.NewConsumer("g", "u", "m1")
	if err != nil {
		t.Fatalf("consumer of the group on another topic: %v", err)
	}
	onU.Close()
	if got := readAll(c, 12); fmt.Sprint(got) != inOrder(0) {
		t.Fatalf("one consumer read %v, want every record in event-time order %v", got, inOrder(0))
	}
	c.Close()

	// After Close the group is free, and a new consumer resumes where the
	// commits left off: the 12 committed records are not read again.
	c, err = b.NewConsumer("g", "t", "m2")
	if err != nil {
		t.Fatalf("consumer after Close: %v", err)
	}
	if got := readAll(c, 0); fmt.Sprint(got) != inOrder(12) {
		t.Fatalf("resumed consumer read %v, want %v", got, inOrder(12))
	}
	c.Close()

	// Offsets restored before a consumer opens are where it starts: record
	// i sits at offset i/3 of partition (i*5)%3, so records 0-5 are the
	// first two of each partition.
	b.RestoreOffsets("g", "t", map[int]int64{0: 2, 1: 2, 2: 2})
	c, err = b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := readAll(c, 0); fmt.Sprint(got) != inOrder(6) {
		t.Fatalf("consumer after RestoreOffsets read %v, want %v", got, inOrder(6))
	}
}

func TestRestoreOffsetsRewinds(t *testing.T) {
	b := offsetsTestBroker(t, 2, 10)
	ctx := context.Background()
	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		recs, err := c.Poll(ctx, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			c.Commit(r)
		}
	}
	c.Close()

	// Commit() never rewinds; RestoreOffsets must.
	b.RestoreOffsets("g", "t", map[int]int64{0: 1})
	got := b.CommittedOffsets("g", "t")
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after restore: %v, want map[0:1]", got)
	}

	// A consumer created after the restore resumes from the restored offsets:
	// partition 0 from offset 1, partition 1 from the rewound offset 0.
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	c2, err := b.NewConsumer("g", "t", "m2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	first := map[int]int64{0: -1, 1: -1}
	for {
		recs, err := c2.Poll(ctx, 4)
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if first[r.Partition] == -1 {
				first[r.Partition] = r.Offset
			}
		}
	}
	if first[0] != 1 || first[1] != 0 {
		t.Fatalf("first offsets after restore = %v, want map[0:1 1:0]", first)
	}
}

func TestSeekTo(t *testing.T) {
	b := offsetsTestBroker(t, 1, 10)
	ctx := context.Background()
	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs, err := c.Poll(ctx, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		c.Commit(r)
	}

	// Rewind and re-read the same records.
	if err := c.SeekTo(0, 2); err != nil {
		t.Fatal(err)
	}
	recs, err = c.Poll(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Offset != 2 {
		t.Fatalf("after SeekTo(0,2) first offset = %d", recs[0].Offset)
	}
	// Committed offset is untouched by the seek.
	if got := b.CommittedOffsets("g", "t")[0]; got != 6 {
		t.Fatalf("committed offset after seek = %d, want 6", got)
	}

	if err := c.SeekTo(0, -1); !errors.Is(err, ErrOffsetOutRange) {
		t.Fatalf("negative seek: %v", err)
	}
	if err := c.SeekTo(5, 0); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("seek past the topic's partitions: %v", err)
	}
	if err := c.SeekTo(-1, 0); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("seek to a negative partition: %v", err)
	}
}

func TestPollAfterClose(t *testing.T) {
	b := offsetsTestBroker(t, 2, 4)
	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Poll after Close must return the sentinel immediately — never block,
	// never panic — even with records still buffered in the topic.
	done := make(chan error, 1)
	go func() {
		_, err := c.Poll(context.Background(), 10)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConsumerClosed) {
			t.Fatalf("Poll after Close: %v, want ErrConsumerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Poll after Close blocked")
	}

	if err := c.SeekTo(0, 0); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("SeekTo after Close: %v", err)
	}
	if _, err := c.Lag(); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("Lag after Close: %v", err)
	}
	c.Close() // double close is a no-op
}

func TestPollMergesByEventTime(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(5000, 0).UTC()
	// Interleave event times across chosen partitions.
	times := []struct {
		part int
		sec  int
	}{{2, 0}, {0, 1}, {1, 2}, {0, 3}, {2, 4}, {1, 5}}
	for i, pt := range times {
		if _, err := b.Produce(context.Background(), "t", keyFor(pt.part, 3), []byte{byte(i)}, t0.Add(time.Duration(pt.sec)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []time.Time
	for {
		recs, err := c.Poll(context.Background(), 1)
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got = append(got, r.Time)
		}
	}
	if len(got) != len(times) {
		t.Fatalf("consumed %d records, want %d", len(got), len(times))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Before(got[i-1]) {
			t.Fatalf("records out of event-time order at %d: %v", i, got)
		}
	}
}

// TestPollWakesOnAnyPartition: a Poll blocked on a quiet topic returns as
// soon as a record lands on any partition, not only on partition 0.
func TestPollWakesOnAnyPartition(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	produced := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		_, err := b.Produce(context.Background(), "t", keyFor(1, 2), []byte("p1"), base)
		produced <- err
	}()
	start := time.Now()
	recs, err := c.Poll(ctx, 10)
	took := time.Since(start)
	if perr := <-produced; perr != nil {
		t.Fatal(perr)
	}
	if err != nil || len(recs) != 1 || recs[0].Partition != 1 {
		t.Fatalf("Poll after %v: %+v, %v; want the partition-1 record", took, recs, err)
	}
	if took >= deadline/2 {
		t.Fatalf("Poll woke after %v, want well before the %v deadline", took, deadline)
	}
}

// TestPollConcurrentProducersPerPartition runs one producer per partition
// against one blocking consumer: every record is polled exactly once, and
// each partition's records arrive in the order they were produced.
func TestPollConcurrentProducersPerPartition(t *testing.T) {
	const parts, perPart = 4, 500
	b := NewBroker()
	if err := b.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, parts)
	for p := 0; p < parts; p++ {
		go func(p int) {
			key := keyFor(p, parts)
			for i := 0; i < perPart; i++ {
				ts := base.Add(time.Duration(i) * time.Millisecond)
				if _, err := b.Produce(context.Background(), "t", key, []byte(strconv.Itoa(i)), ts); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var next [parts]int
	for got := 0; got < parts*perPart; {
		recs, err := c.Poll(ctx, 64)
		if err != nil {
			t.Fatalf("after %d records: %v", got, err)
		}
		for _, r := range recs {
			if want := strconv.Itoa(next[r.Partition]); string(r.Value) != want {
				t.Fatalf("partition %d: record %q, want %q", r.Partition, r.Value, want)
			}
			next[r.Partition]++
			got++
		}
	}
	for p := 0; p < parts; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if recs, err := c.TryPollInto(nil, 64); err != nil || len(recs) != 0 {
		t.Fatalf("records past the produced ones: %d, %v", len(recs), err)
	}
}

// TestTruncateAndFetch: Fetch reads a partition's head at any retained
// offset, and Truncate cuts the tail so the next produce reuses the cut
// offset.
func TestTruncateAndFetch(t *testing.T) {
	b := offsetsTestBroker(t, 1, 5)
	done, cancel := context.WithCancel(context.Background())
	cancel()

	recs, err := b.Fetch(done, "t", 0, 2, 1)
	if err != nil || len(recs) != 1 || recs[0].Offset != 2 {
		t.Fatalf("Fetch at 2: %+v, %v", recs, err)
	}
	if want := time.Unix(1002, 0).UTC(); !recs[0].Time.Equal(want) {
		t.Fatalf("head time at 2 = %v, want %v", recs[0].Time, want)
	}
	if _, err := b.Fetch(done, "t", 0, 5, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fetch past end: %v, want the context's error", err)
	}
	if _, err := b.Fetch(done, "t", 0, -1, 1); !errors.Is(err, ErrOffsetOutRange) {
		t.Fatalf("Fetch negative: %v", err)
	}
	if _, err := b.Fetch(done, "ghost", 0, 0, 1); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("Fetch unknown topic: %v", err)
	}

	if err := b.Truncate("t", 0, 3); err != nil {
		t.Fatal(err)
	}
	end, err := b.EndOffset("t", 0)
	if err != nil || end != 3 {
		t.Fatalf("after truncate: end=%d err=%v", end, err)
	}
	// The next produce reuses offset 3.
	rec, err := b.Produce(context.Background(), "t", "k0", []byte("new"), time.Unix(9999, 0).UTC())
	if err != nil || rec.Offset != 3 {
		t.Fatalf("produce after truncate: offset=%d err=%v", rec.Offset, err)
	}
	// Truncating at or past the end is a no-op.
	if err := b.Truncate("t", 0, 100); err != nil {
		t.Fatal(err)
	}
	if end, _ := b.EndOffset("t", 0); end != 4 {
		t.Fatalf("no-op truncate changed end to %d", end)
	}
	if err := b.Truncate("t", 0, -1); !errors.Is(err, ErrOffsetOutRange) {
		t.Fatalf("negative truncate: %v", err)
	}
}

// TestTryPollIntoMatchesPollWithoutWaiting pins the non-blocking poll: while
// records are buffered it returns exactly the batches Poll returns, in the
// same event-time merge order; once the consumer has caught up it returns
// nothing at once — on an open topic and on a closed one, where only Poll
// reports end-of-stream.
func TestTryPollIntoMatchesPollWithoutWaiting(t *testing.T) {
	b := NewBroker()
	b.Instrument(obs.NewRegistry(obs.NewManualClock(time.Unix(0, 0).UTC())))
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(5000, 0).UTC()
	for i := 0; i < 20; i++ {
		if _, err := b.Produce(context.Background(), "t", keyFor((i*7)%3, 3), []byte{byte(i)}, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	blocking, err := b.NewConsumer("blocking", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	try, err := b.NewConsumer("try", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	var buf []Record
	for {
		got, err := try.TryPollInto(buf[:0], 3)
		buf = got
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		polls++
		want, err := blocking.Poll(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("poll %d: TryPollInto %v, Poll %v", polls, got, want)
		}
	}
	if lag, _ := try.Lag(); lag != 0 {
		t.Fatalf("TryPollInto stopped with %d records unfetched", lag)
	}
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	if recs, err := try.TryPollInto(nil, 3); len(recs) != 0 || err != nil {
		t.Fatalf("TryPollInto on a drained closed topic = %v, %v; want nothing, nil", recs, err)
	}
	if _, err := try.Poll(context.Background(), 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("Poll on a drained closed topic: %v, want ErrClosed", err)
	}
	try.Close()
	if _, err := try.TryPollInto(nil, 3); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("TryPollInto after Close: %v, want ErrConsumerClosed", err)
	}
}

// TestPollCommitAllocs: a warm consumer polling buffered records into a
// buffer with room and committing them allocates nothing — no fetch-wait
// registration and no per-commit list of the topic's groups — and Poll
// allocates only the batch it returns. Both the instrumented (lag gauge)
// path and a second group on the topic are exercised.
func TestPollCommitAllocs(t *testing.T) {
	b := NewBroker()
	b.Instrument(obs.NewRegistry(obs.NewManualClock(time.Unix(0, 0).UTC())))
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProduceBatch(context.Background(), "t", batchOf(4000, time.Unix(5000, 0).UTC())); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.NewConsumer("other", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	pollCommit := func(poll func() ([]Record, error)) {
		recs, err := poll()
		if err != nil || len(recs) == 0 {
			t.Fatalf("poll = %d records, %v; want a batch", len(recs), err)
		}
		c.Commit(recs[len(recs)-1])
	}
	buf := make([]Record, 0, 8)
	polls := []struct {
		name   string
		poll   func() ([]Record, error)
		allocs float64
	}{
		{"TryPollInto", func() ([]Record, error) { return c.TryPollInto(buf[:0], 8) }, 0},
		{"PollInto", func() ([]Record, error) { return c.PollInto(context.Background(), buf[:0], 8) }, 0},
		{"Poll", func() ([]Record, error) { return c.Poll(context.Background(), 8) }, 1},
	}
	pollCommit(polls[0].poll)
	for _, p := range polls {
		if n := testing.AllocsPerRun(100, func() { pollCommit(p.poll) }); n != p.allocs {
			t.Errorf("warm %s + Commit made %v allocations, want %v", p.name, n, p.allocs)
		}
	}
}

// TestPollIntoMatchesPoll: polling into one reused slice returns exactly
// the records Poll returns — topic, partition, offset, key, value and time,
// in the same event-time merge order — over a 4-partition topic whose
// partitions' event times interleave, with ties across partitions. The
// records land in the caller's slice, a quiet topic yields nothing at once,
// and an error leaves dst as it was.
func TestPollIntoMatchesPoll(t *testing.T) {
	const parts, n, max = 4, 203, 5
	b := NewBroker()
	for _, name := range []string{"t", "quiet"} {
		if err := b.CreateTopic(name, parts); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Unix(5000, 0).UTC()
	for i := 0; i < n; i++ {
		key := keyFor((i*i+i/3)%parts, parts)
		if _, err := b.Produce(context.Background(), "t", key, []byte(strconv.Itoa(i)), t0.Add(time.Duration(i/2)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := b.NewConsumer("poll", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	into, err := b.NewConsumer("into", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := b.NewConsumer("into", "quiet", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := quiet.TryPollInto(nil, max); len(got) != 0 || err != nil {
		t.Fatalf("TryPollInto on a quiet topic = %v, %v; want nothing, nil", got, err)
	}

	buf := make([]Record, 0, max)
	ctx := context.Background()
	seen, partsSeen := 0, map[int]bool{}
	for seen < n {
		want, err := ref.Poll(ctx, max)
		if err != nil {
			t.Fatal(err)
		}
		got, err := into.PollInto(ctx, buf[:0], max)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecords(got, want) {
			t.Fatalf("after %d records: PollInto %v, Poll %v", seen, got, want)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatalf("after %d records: PollInto did not fill the caller's slice", seen)
		}
		for _, r := range got {
			partsSeen[r.Partition] = true
		}
		seen += len(got)
	}
	if len(partsSeen) != parts {
		t.Fatalf("records came from %d partitions, want %d", len(partsSeen), parts)
	}
	if got, err := into.TryPollInto(buf[:0], max); len(got) != 0 || err != nil {
		t.Fatalf("TryPollInto past the produced records = %v, %v; want nothing, nil", got, err)
	}
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	prefix := []Record{{Topic: "kept", Offset: 7}}
	if got, err := into.PollInto(ctx, prefix, max); !errors.Is(err, ErrClosed) || !sameRecords(got, prefix) {
		t.Fatalf("PollInto on a drained closed topic = %v, %v; want dst unchanged, ErrClosed", got, err)
	}
}

// TestPollBatchIsOnePartitionsRun pins the batch shape a run loop commits
// by: on a 4-partition topic whose partitions interleave in event time,
// every PollInto and TryPollInto batch holds consecutive offsets of exactly
// one partition, each batch resuming its partition where the last one left
// it, so committing a batch's last record commits the whole batch.
func TestPollBatchIsOnePartitionsRun(t *testing.T) {
	const parts, n, max = 4, 400, 16
	b := NewBroker()
	if err := b.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	// Each partition's times rise by a gap of 1 to 6 s drawn from a fixed
	// sequence, so partitions overtake one another in runs of varying length.
	t0 := time.Unix(5000, 0).UTC()
	var next [parts]time.Duration
	for i := 0; i < n; i++ {
		p := (i*7 + i/5) % parts
		next[p] += time.Duration(1+(i*13)%6) * time.Second
		if _, err := b.Produce(context.Background(), "t", keyFor(p, parts), []byte{byte(i)}, t0.Add(next[p])); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	for _, blocking := range []bool{true, false} {
		c, err := b.NewConsumer(fmt.Sprintf("blocking=%v", blocking), "t", "m1")
		if err != nil {
			t.Fatal(err)
		}
		var pos [parts]int64
		var buf []Record
		total, runs := 0, 0
		for {
			if blocking {
				buf, err = c.PollInto(context.Background(), buf[:0], max)
			} else {
				buf, err = c.TryPollInto(buf[:0], max)
			}
			if errors.Is(err, ErrClosed) || (!blocking && err == nil && len(buf) == 0) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			p := buf[0].Partition
			for j, r := range buf {
				if r.Partition != p || r.Offset != pos[p]+int64(j) {
					t.Fatalf("blocking=%v: batch at partition %d offset %d holds partition %d offset %d at %d",
						blocking, p, pos[p], r.Partition, r.Offset, j)
				}
			}
			pos[p] += int64(len(buf))
			total += len(buf)
			if len(buf) > 1 {
				runs++
			}
		}
		if total != n || runs == 0 {
			t.Fatalf("blocking=%v: polled %d of %d records in %d multi-record batches; want all, in some", blocking, total, n, runs)
		}
		c.Close()
	}
}
